package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"sort"
	"sync"
	"time"

	"pprl/internal/core"
	"pprl/internal/distrib"
)

// fleetProcs: core.Link striped over two pprl-party worker processes.
type fleetProcs struct {
	rel *relations
	bin string
	// setupFleet serves setupsPerFleet set-ups before it is replaced, so
	// a hundred set-ups do not cost two hundred process spawns.
	setupFleet *fleet
	setupsLeft int
}

const setupsPerFleet = 10

func (w *fleetProcs) par() int       { return parallelism }
func (w *fleetProcs) digest() string { return w.rel.digest }

func (w *fleetProcs) prepare(e *env) (err error) {
	if w.rel, err = genRelations(e.sz.SecureRecords, e.seed); err != nil {
		return err
	}
	w.bin, err = buildParty(e.root)
	return err
}

// fleet is one coordinator with its worker processes attached.
type fleet struct {
	pool     *distrib.Pool
	conns    []*countConn
	cmds     []*exec.Cmd
	register time.Duration
	stopOnce sync.Once
}

// startFleet spawns the workers, accepts them on a listener the bench
// owns, and registers each through a byte-counting connection. Spawning
// and accepting are harness preparation; only the registration
// handshakes are timed.
func (w *fleetProcs) startFleet(e *env, trace bool) (*fleet, error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	f := &fleet{pool: distrib.NewPool(distrib.PoolOptions{})}
	e.clean.add(f.stop)
	for i := 0; i < parallelism; i++ {
		cmd := exec.Command(w.bin, "-role", "worker", "-coordinator", ln.Addr().String(),
			"-lanes", "1", "-worker-name", fmt.Sprintf("bench-w%d", i+1))
		// One core per worker: the fleet as a whole gets the same two
		// cores the in-process lanes get.
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		if err := cmd.Start(); err != nil {
			f.stop()
			return nil, fmt.Errorf("starting worker: %w", err)
		}
		f.cmds = append(f.cmds, cmd)
	}
	var accepted []net.Conn
	for range f.cmds {
		c, err := ln.Accept()
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("waiting for workers to dial in: %w", err)
		}
		accepted = append(accepted, c)
	}
	t0 := time.Now()
	for _, c := range accepted {
		cc := &countConn{Conn: c, trace: trace}
		f.conns = append(f.conns, cc)
		if err := f.pool.AddConn(cc); err != nil {
			f.stop()
			return nil, err
		}
	}
	f.register = time.Since(t0)
	return f, nil
}

// stop hangs up on the workers (they exit on EOF), waits briefly, and
// kills whatever is still alive. Safe to call more than once.
func (f *fleet) stop() {
	f.stopOnce.Do(func() {
		f.pool.Close()
		for _, cmd := range f.cmds {
			done := make(chan struct{})
			go func() { cmd.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				cmd.Process.Kill()
				<-done
			}
		}
	})
}

func (f *fleet) pids() []int {
	var out []int
	for _, cmd := range f.cmds {
		out = append(out, cmd.Process.Pid)
	}
	return out
}

func (f *fleet) bytes() int64 {
	var n int64
	for _, c := range f.conns {
		n += c.work()
	}
	return n
}

// workerRSS sums the workers' resident-set high-water marks.
func (f *fleet) workerRSS() float64 {
	var mb float64
	for _, cmd := range f.cmds {
		if v, err := peakRSSMB(cmd.Process.Pid); err == nil {
			mb += v
		}
	}
	return mb
}

func (w *fleetProcs) factory(e *env, f *fleet) core.ComparatorFactory {
	return f.pool.Factory(distrib.JobConfig{Engine: distrib.EngineSecure, KeyBits: e.sz.KeyBits, Lanes: 1, ChunkPairs: fleetChunk})
}

// setup: registration of both workers, then NewComparator — shipping
// every encoded row to every worker and waiting for their engines.
func (w *fleetProcs) setup(e *env) (time.Duration, error) {
	if w.setupsLeft == 0 {
		w.stopSetupFleet()
		f, err := w.startFleet(e, false)
		if err != nil {
			return 0, err
		}
		w.setupFleet, w.setupsLeft = f, setupsPerFleet
	}
	w.setupsLeft--
	d, err := constructOnce(w.rel, w.factory(e, w.setupFleet))
	return w.setupFleet.register + d, err
}

func (w *fleetProcs) stopSetupFleet() {
	if w.setupFleet != nil {
		w.setupFleet.stop()
		w.setupFleet, w.setupsLeft = nil, 0
	}
}

func (w *fleetProcs) link(e *env, tr *tracer, f *fleet, pairs, seams int) (*linkRun, error) {
	cfg := baseConfig(w.rel)
	cfg.Allowance = int64(pairs)
	return timedLink(e, w.rel, cfg, tr, linkOpts{par: parallelism, seams: seams, factory: w.factory(e, f), hint: fleetHint, pids: f.pids()})
}

func (w *fleetProcs) pass(e *env, tr *tracer) (*outcome, error) {
	w.stopSetupFleet()
	f, err := w.startFleet(e, tr != nil)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	if _, err := w.link(e, nil, f, e.sz.WarmPairs, 0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	before := f.bytes()
	var marks []int
	for _, c := range f.conns {
		c.mu.Lock()
		marks = append(marks, len(c.events))
		c.mu.Unlock()
	}
	run, err := w.link(e, tr, f, e.sz.FleetPairs, (e.sz.FleetPairs+fleetHint-1)/fleetHint+2)
	if err != nil {
		return nil, err
	}
	wire := f.bytes() - before
	o := secureLinkOutcome(w.rel, run, wire)
	o.layer["distrib.worker_rss_mb"] = f.workerRSS()
	o.layer["distrib.register_ms"] = f.register.Seconds() * 1e3
	o.layer["distrib.link_bytes_per_pair"] = o.wirePerPair
	o.layer["distrib.pairs_per_s"] = o.pairsPerS // what distrib.efficiency divides
	if tr != nil {
		w.linkLayer(o, run, f, marks, tr)
		if err := w.probeOracleRTT(e, f, o.layer); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// chunkMinBytes separates fleet frames that carry work from heartbeats:
// a heartbeat is a handful of bytes, a 32-pair chunk or its verdicts
// well over this.
const chunkMinBytes = 32

// linkLayer recovers the fleet link's layer metrics from the Read and
// Write events of the timed link. Until the wrapped factory returned,
// everything written was set-up (job parameters and record shipping);
// after it, every sizeable Write is a chunk and the next sizeable Read
// on that connection is its verdicts.
func (w *fleetProcs) linkLayer(o *outcome, run *linkRun, f *fleet, marks []int, tr *tracer) {
	st := run.stats
	constructStart, constructed := tr.bounds("smc.construct")
	var rtts []float64
	var shipBytes int64
	var shipEnd time.Time
	for ci, c := range f.conns {
		c.mu.Lock()
		events := c.events[marks[ci]:]
		c.mu.Unlock()
		var sent *ioEvent
		for i := range events {
			ev := &events[i]
			switch {
			case ev.at.Before(constructed):
				if ev.write {
					shipBytes += int64(ev.n)
					if ev.at.After(shipEnd) {
						shipEnd = ev.at
					}
				}
			case ev.write && ev.n >= chunkMinBytes:
				sent = ev
			case !ev.write && ev.n >= chunkMinBytes && sent != nil:
				rtts = append(rtts, st.refLocal(op{start: sent.at, end: ev.at})*1e3)
				tr.add("distrib.chunk", 0, sent.at, ev.at)
				sent = nil
			}
		}
	}
	sort.Float64s(rtts)
	o.layer["distrib.chunk_rtt_p50_ms"] = percentile(rtts, 50)
	o.layer["distrib.chunk_rtt_p95_ms"] = percentile(rtts, 95)
	o.layer["distrib.ship_bytes"] = float64(shipBytes)
	if !shipEnd.IsZero() {
		o.layer["distrib.ship_records_ms"] = shipEnd.Sub(constructStart).Seconds() * 1e3
	}
}

// probeOracleRTT measures the pure link cost of a chunk: the same
// fleet, the oracle engine, one chunk per call.
func (w *fleetProcs) probeOracleRTT(e *env, f *fleet, layer map[string]float64) error {
	factory := f.pool.Factory(distrib.JobConfig{Engine: distrib.EngineOracle, Lanes: 1, ChunkPairs: fleetChunk})
	cmp, err := factory(w.rel.encoded(true), w.rel.encoded(false), w.rel.spec, 1)
	if err != nil {
		return err
	}
	defer cmp.Close()
	pairs := make([][2]int, fleetChunk)
	for i := range pairs {
		pairs[i] = [2]int{i % w.rel.alice.Len(), (i * 7) % w.rel.bob.Len()}
	}
	var us []float64
	for i := 0; i < e.sz.ProbeOps+5; i++ {
		t0 := time.Now()
		if _, err := cmp.(batcher).CompareBatch(pairs); err != nil {
			return err
		}
		if i >= 5 {
			us = append(us, float64(time.Since(t0))/1e3)
		}
	}
	layer["distrib.oracle_chunk_rtt_us"] = median(us)
	return nil
}

func (w *fleetProcs) probe(e *env, layer map[string]float64) error {
	if err := probePaillier(e, layer); err != nil {
		return err
	}
	inproc, err := probeInproc(e, w.rel)
	if err != nil {
		return err
	}
	layer["distrib.efficiency"] = layer["distrib.pairs_per_s"] / inproc
	delete(layer, "distrib.pairs_per_s")
	return nil
}
