package main

import (
	"fmt"
	"time"

	"pprl/internal/core"
)

// workload is one deployment shape pushed through the program's public
// functions.
type workload interface {
	// prepare generates the inputs from the seed and does the harness's
	// own preparation (files, builds). Its time is bench.prep_s.
	prepare(e *env) error
	// setup performs one program set-up — everything the program must do
	// before the first comparison or batch can be issued — and returns
	// how long the program's part took.
	setup(e *env) (time.Duration, error)
	// pass runs the warm-up and the timed region once and checks the
	// outputs. tr is nil on the untraced pass.
	pass(e *env, tr *tracer) (*outcome, error)
	// probe runs the layer probes that bear on this workload and adds
	// their values to layer. Only the traced run calls it.
	probe(e *env, layer map[string]float64) error
	// par is how many goroutines a reference sample uses.
	par() int
	digest() string
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "secure-inproc":
		return &secureInproc{}, nil
	case "plain-fullscale":
		return &plainFullscale{}, nil
	case "session-tcp":
		return &sessionTCP{}, nil
	case "fleet-procs":
		return &fleetProcs{}, nil
	case "live-ingest":
		return &liveIngest{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// constructOnce times one comparator construction the way core.Link
// performs it: encode both relations, then call the factory.
func constructOnce(rel *relations, factory core.ComparatorFactory) (time.Duration, error) {
	t0 := time.Now()
	cmp, err := factory(rel.encoded(true), rel.encoded(false), rel.spec, parallelism)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d, cmp.Close()
}

// secureInproc: core.Link with the sharded in-process Paillier engine.
type secureInproc struct{ rel *relations }

func (w *secureInproc) par() int       { return parallelism }
func (w *secureInproc) digest() string { return w.rel.digest }

func (w *secureInproc) prepare(e *env) (err error) {
	w.rel, err = genRelations(e.sz.SecureRecords, e.seed)
	return err
}

func (w *secureInproc) setup(e *env) (time.Duration, error) {
	return constructOnce(w.rel, core.SecureComparatorFactory(e.sz.KeyBits))
}

// link runs one secure in-process link of the given allowance.
func (w *secureInproc) link(e *env, tr *tracer, pairs, seams int) (*linkRun, error) {
	cfg := baseConfig(w.rel)
	cfg.Allowance = int64(pairs)
	return timedLink(e, w.rel, cfg, tr, linkOpts{par: parallelism, seams: seams,
		factory: core.SecureComparatorFactory(e.sz.KeyBits), hint: secureHint})
}

func (w *secureInproc) pass(e *env, tr *tracer) (*outcome, error) {
	if _, err := w.link(e, nil, e.sz.WarmPairs, 0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	run, err := w.link(e, tr, e.sz.SecurePairs, e.sz.SecurePairs/secureHint+2)
	if err != nil {
		return nil, err
	}
	return secureLinkOutcome(w.rel, run, run.cmp.bytes), nil
}

func (w *secureInproc) probe(e *env, layer map[string]float64) error {
	if err := probePaillier(e, layer); err != nil {
		return err
	}
	return probeSMC(e, w.rel, layer)
}

// plainFullscale: the paper-scale link with the plaintext oracle.
type plainFullscale struct{ rel *relations }

func (w *plainFullscale) par() int       { return 1 }
func (w *plainFullscale) digest() string { return w.rel.digest }

func (w *plainFullscale) prepare(e *env) (err error) {
	w.rel, err = genRelations(e.sz.PlainRecords, e.seed)
	return err
}

func (w *plainFullscale) setup(e *env) (time.Duration, error) {
	return constructOnce(w.rel, core.PlainComparatorFactory)
}

func (w *plainFullscale) link(e *env, tr *tracer, calibrate bool) (*linkRun, error) {
	cfg := baseConfig(w.rel) // dense blocking, allowance 1.5 %, default oracle
	if !calibrate {
		return timedLink(e, w.rel, cfg, tr, linkOpts{})
	}
	events := int(cfg.AllowanceFraction*float64(w.rel.alice.Len())*float64(w.rel.bob.Len())) / smcStride
	// Every repetition is its own region, and the run reports their
	// median: half the usual sample target per repetition still puts
	// over a hundred samples behind the reported number.
	target := max(2, e.ref.target/2)
	return timedLink(e, w.rel, cfg, tr, linkOpts{par: 1, seams: target, target: target, seamEvery: max(1, events/(target-1))})
}

func (w *plainFullscale) pass(e *env, tr *tracer) (*outcome, error) {
	if _, err := w.link(e, nil, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	o := &outcome{layer: map[string]float64{}}
	var links, rates, allocs, lat []float64
	var last *linkRun
	for rep := 0; rep < e.sz.PlainReps; rep++ {
		// Spans of every repetition would be five copies of one picture;
		// the traced pass records the last one.
		var t *tracer
		if rep == e.sz.PlainReps-1 {
			t = tr
		}
		run, err := w.link(e, t, true)
		if err != nil {
			return nil, err
		}
		st := run.stats
		links = append(links, st.ref(run.linkWall()))
		rates = append(rates, float64(run.res.Invocations)/st.ref(run.clock.between("blocking", "end")))
		allocs = append(allocs, float64(st.AllocBytes)/1e6)
		lat = append(lat, opLatencies(st, run.clock.strides)...)
		wrong, recall, precision := verifyLink(w.rel, run.res)
		o.attempted++
		if wrong > 0 {
			o.failed++
		}
		o.recall, o.precision = recall, precision
		o.rawWallS += st.Wall.Seconds()
		o.calS += st.Cal.Seconds()
		last = run
	}
	o.linkS, o.pairsPerS, o.allocMB = median(links), median(rates), median(allocs)
	o.recordsPerS = float64(w.rel.alice.Len()+w.rel.bob.Len()) / o.linkS
	o.p50ms, o.p95ms = percentile(lat, 50), percentile(lat, 95)
	o.stats = last.stats
	vb, err := viewBytes(w.rel, last.res.Block.R, last.res.Block.S)
	if err != nil {
		return nil, err
	}
	o.wirePerPair = float64(vb) / float64(last.res.Invocations)
	coreLayer(o.layer, last, last.res.Invocations)
	return o, nil
}

func (w *plainFullscale) probe(e *env, layer map[string]float64) error {
	if err := probeBlocking(e, w.rel, layer); err != nil {
		return err
	}
	if err := probeViews(e, w.rel, layer); err != nil {
		return err
	}
	return probeOracleAndEncode(e, w.rel, layer)
}
