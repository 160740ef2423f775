package distrib

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pprl/internal/metrics"
	"pprl/internal/smc"
	"pprl/internal/wire"
)

// recordShipChunk bounds rows per kindRecords frame, so shipping a large
// holder never builds one giant frame.
const recordShipChunk = 2048

// handshakeTimeout bounds the register/welcome exchange on a new
// connection, so a stray dialer cannot wedge AddConn.
const handshakeTimeout = 10 * time.Second

// PoolOptions configures a coordinator.
type PoolOptions struct {
	// Logger receives correlation-id lifecycle lines
	// (job=… chunk=… worker=…); nil is silent.
	Logger *log.Logger
	// HeartbeatTimeout is how long a worker may go silent before the
	// coordinator declares it dead and reassigns its chunk. ≤ 0 means
	// 30s. Workers beacon every second by default, so the timeout
	// tolerates long GC pauses and slow crypto without false positives.
	HeartbeatTimeout time.Duration
}

// WorkerRecord is the pool's account of one worker name: it outlives the
// worker's removal and carries on when the name registers again.
type WorkerRecord struct {
	Name     string
	Live     bool      // registered now
	Failures int64     // failures that dropped it from a job
	LastBeat time.Time // its last message, heartbeat or any other
	// Chunks is every answered chunk's round trip, send to verdicts.
	Chunks metrics.Histogram
}

// record is a worker name's record as the pool keeps it; w is the name's
// latest registration.
type record struct {
	w        *worker
	failures atomic.Int64
	chunks   metrics.Histogram
}

// worker is the coordinator's view of one fleet member.
type worker struct {
	name  string
	lanes int
	link  *wire.Link
	// incoming carries non-heartbeat messages from the read loop to
	// whichever coordinator goroutine currently owns this worker (the
	// pool serializes jobs, and within a job each worker serves one
	// chunk at a time, so there is exactly one consumer).
	incoming chan *message
	// dead closes when the read loop exits; lastBeat holds the unix
	// nanos of the most recent message of any kind.
	dead     chan struct{}
	lastBeat atomic.Int64
	rec      *record
}

func (w *worker) alive() bool {
	select {
	case <-w.dead:
		return false
	default:
		return true
	}
}

// Pool is the coordinator: workers dial it and register, on a listener
// it serves (Serve) or on connections its owner accepted (AddConn), and
// it hands out distributed Comparators that stripe comparison chunks
// across the live fleet. One Pool serves any number of sequential jobs;
// NewComparator serializes them.
type Pool struct {
	opts PoolOptions

	mu      sync.Mutex
	workers map[string]*worker
	records map[string]*record
	seq     int

	jobMu  sync.Mutex
	jobSeq atomic.Int64

	closed    chan struct{}
	closeOnce sync.Once

	lnMu sync.Mutex
	lns  []net.Listener
}

// NewPool builds an empty coordinator.
func NewPool(opts PoolOptions) *Pool {
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 30 * time.Second
	}
	return &Pool{opts: opts, workers: make(map[string]*worker), records: make(map[string]*record), closed: make(chan struct{})}
}

func (p *Pool) logf(format string, args ...any) {
	if p.opts.Logger != nil {
		p.opts.Logger.Printf(format, args...)
	}
}

// AddConn performs the registration handshake on a fresh worker
// connection and adds the worker to the fleet; the worker speaks first.
// Serve calls it for every connection it accepts.
func (p *Pool) AddConn(conn net.Conn) error {
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	l := wire.NewLink(conn)
	reg := new(message)
	if err := l.Recv(reg); err != nil {
		conn.Close()
		return fmt.Errorf("distrib: worker handshake: %w", err)
	}
	if reg.Kind != kindRegister {
		conn.Close()
		return fmt.Errorf("distrib: expected registration, got message kind %d", reg.Kind)
	}
	p.mu.Lock()
	name := reg.Name
	if name == "" {
		p.seq++
		name = fmt.Sprintf("w%d", p.seq)
	}
	for p.workers[name] != nil {
		p.seq++
		name = fmt.Sprintf("%s-%d", reg.Name, p.seq)
	}
	w := &worker{name: name, lanes: reg.Lanes, link: l, incoming: make(chan *message, 8), dead: make(chan struct{})}
	// Registration is the first proof of life.
	w.lastBeat.Store(time.Now().UnixNano())
	if w.rec = p.records[name]; w.rec == nil {
		w.rec = new(record)
		p.records[name] = w.rec
	}
	w.rec.w = w
	p.workers[name] = w
	p.mu.Unlock()
	if err := l.Send(&message{Kind: kindWelcome, Name: name}); err != nil {
		p.remove(w)
		conn.Close()
		return fmt.Errorf("distrib: welcoming worker %s: %w", name, err)
	}
	conn.SetDeadline(time.Time{})
	go p.readLoop(w)
	p.logf("distrib: worker=%s registered lanes=%d addr=%s", name, reg.Lanes, conn.RemoteAddr())
	return nil
}

// readLoop drains one worker's connection: heartbeats refresh liveness,
// everything else is queued for the coordinator goroutine that owns the
// worker. Exit (decode error = connection lost) removes the worker from
// the fleet and then marks it dead, so whoever saw dead close sees the
// fleet without it.
func (p *Pool) readLoop(w *worker) {
	defer func() {
		p.remove(w)
		close(w.dead)
		p.logf("distrib: worker=%s disconnected", w.name)
	}()
	for {
		m := new(message)
		if err := w.link.Recv(m); err != nil {
			return
		}
		w.lastBeat.Store(time.Now().UnixNano())
		if m.Kind == kindHeartbeat {
			continue
		}
		select {
		case w.incoming <- m:
		case <-p.closed:
			return
		}
	}
}

func (p *Pool) remove(w *worker) {
	p.mu.Lock()
	if p.workers[w.name] == w {
		delete(p.workers, w.name)
	}
	p.mu.Unlock()
}

// Serve accepts worker registrations on ln until the pool or ln closes.
// A failed Accept (EMFILE, say) is logged and retried after a backoff
// that doubles from 5 ms to 1 s, so one bad moment does not end
// registration for the life of the pool. It always returns a non-nil
// error wrapping net.ErrClosed, net/http style.
func (p *Pool) Serve(ln net.Listener) error {
	p.lnMu.Lock()
	p.lns = append(p.lns, ln)
	select {
	case <-p.closed: // Close ran first and could not close ln
		ln.Close()
	default:
	}
	p.lnMu.Unlock()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err == nil {
			backoff = 0
			go func() {
				if err := p.AddConn(conn); err != nil {
					p.logf("distrib: rejected connection from %s: %v", conn.RemoteAddr(), err)
				}
			}()
			continue
		}
		if errors.Is(err, net.ErrClosed) {
			return fmt.Errorf("distrib: listener closed: %w", err)
		}
		backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
		p.logf("distrib: accept: %v (retrying in %v)", err, backoff)
		select {
		case <-p.closed:
			return fmt.Errorf("distrib: coordinator closed: %w", net.ErrClosed)
		case <-time.After(backoff):
		}
	}
}

// Workers returns the live fleet's names, sorted.
func (p *Pool) Workers() (names []string) {
	for _, r := range p.Records() {
		if r.Live {
			names = append(names, r.Name)
		}
	}
	return names
}

// Records returns every worker name's record, sorted by name.
func (p *Pool) Records() []WorkerRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]WorkerRecord, 0, len(p.records))
	for name, r := range p.records {
		wr := WorkerRecord{Name: name, Live: p.workers[name] == r.w, Failures: r.failures.Load(),
			LastBeat: time.Unix(0, r.w.lastBeat.Load())}
		wr.Chunks.Merge(&r.chunks)
		out = append(out, wr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WaitWorkers blocks until at least n workers are registered or the
// context expires.
func (p *Pool) WaitWorkers(ctx context.Context, n int) error {
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		p.mu.Lock()
		have := len(p.workers)
		p.mu.Unlock()
		if have >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("distrib: %d of %d workers registered: %w", have, n, ctx.Err())
		case <-p.closed:
			return errors.New("distrib: pool closed")
		case <-t.C:
		}
	}
}

// Close shuts the coordinator down: listeners stop accepting and every
// worker connection is dropped (workers exit cleanly on EOF).
func (p *Pool) Close() error {
	p.closeOnce.Do(func() {
		close(p.closed)
		p.lnMu.Lock()
		for _, ln := range p.lns {
			ln.Close()
		}
		p.lnMu.Unlock()
		p.mu.Lock()
		for _, w := range p.workers {
			w.link.Close()
		}
		p.mu.Unlock()
	})
	return nil
}

// await returns the worker's next queued message, failing when the
// connection drops or the worker goes heartbeat-silent past the timeout.
func (p *Pool) await(w *worker) (*message, error) {
	timeout := p.opts.HeartbeatTimeout
	check := timeout / 4
	if check < 10*time.Millisecond {
		check = 10 * time.Millisecond
	}
	t := time.NewTicker(check)
	defer t.Stop()
	for {
		select {
		case m := <-w.incoming:
			return m, nil
		case <-w.dead:
			return nil, fmt.Errorf("distrib: worker %s connection lost", w.name)
		case <-t.C:
			if silent := time.Since(time.Unix(0, w.lastBeat.Load())); silent > timeout {
				w.link.Close()
				return nil, fmt.Errorf("distrib: worker %s heartbeat silent for %v (timeout %v)", w.name, silent.Round(time.Millisecond), timeout)
			}
		}
	}
}

// failWorker drops a worker from the fleet after a mid-job failure.
func (p *Pool) failWorker(w *worker, job string, chunk int, err error) {
	w.rec.failures.Add(1)
	p.logf("distrib: job=%s chunk=%d worker=%s failed: %v (reassigning)", job, chunk, w.name, err)
	// readLoop observes the close, removes the worker and marks it dead.
	// Waiting for that keeps the death inside the batch that met it: the
	// next batch's live() never offers this worker a chunk, and Workers()
	// no longer lists it once CompareBatch returns. Messages still queued
	// are dropped, so a readLoop caught delivering one gets to the close.
	w.link.Close()
	for {
		select {
		case <-w.dead:
			return
		case <-w.incoming:
		}
	}
}

// JobConfig parameterizes one distributed comparison job.
type JobConfig struct {
	// Job is the correlation id stamped on every log line; empty gets a
	// generated one.
	Job string
	// Engine selects what each worker runs; see the Engine constants.
	Engine Engine
	// KeyBits sizes the Paillier keys for EngineSecure.
	KeyBits int
	// Lanes caps per-worker SMC lanes; 0 keeps each worker's own
	// advertised parallelism.
	Lanes int
	// ChunkPairs is the pairs per dispatched chunk — the reassignment
	// granularity. ≤ 0 means 64.
	ChunkPairs int
}

const defaultChunkPairs = 64

// NewComparator ships both holders' encoded records to every live
// worker, waits for their engines, and returns a Comparator that
// stripes batches across the fleet. It holds the pool's job slot until
// the comparator is closed; concurrent calls queue.
func (p *Pool) NewComparator(spec *smc.Spec, alice, bob [][]int64, cfg JobConfig) (*Comparator, error) {
	p.jobMu.Lock()
	c, err := p.newComparatorLocked(spec, alice, bob, cfg)
	if err != nil {
		p.jobMu.Unlock()
		return nil, err
	}
	return c, nil
}

func (p *Pool) newComparatorLocked(spec *smc.Spec, alice, bob [][]int64, cfg JobConfig) (*Comparator, error) {
	if cfg.Job == "" {
		cfg.Job = fmt.Sprintf("job%d", p.jobSeq.Add(1))
	}
	if cfg.ChunkPairs <= 0 {
		cfg.ChunkPairs = defaultChunkPairs
	}
	p.mu.Lock()
	ws := make([]*worker, 0, len(p.workers))
	for _, w := range p.workers {
		ws = append(ws, w)
	}
	p.mu.Unlock()
	sort.Slice(ws, func(i, j int) bool { return ws[i].name < ws[j].name })
	if len(ws) == 0 {
		return nil, errors.New("distrib: no workers registered")
	}
	p.logf("distrib: job=%s engine=%s shipping %d+%d records to %d workers", cfg.Job, cfg.Engine, len(alice), len(bob), len(ws))
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for wi, w := range ws {
		wg.Add(1)
		go func(wi int, w *worker) {
			defer wg.Done()
			errs[wi] = p.setupWorker(w, spec, alice, bob, cfg)
		}(wi, w)
	}
	wg.Wait()
	var live []*worker
	for wi, w := range ws {
		if errs[wi] != nil {
			p.failWorker(w, cfg.Job, -1, errs[wi])
			continue
		}
		live = append(live, w)
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("distrib: job %s: every worker failed setup, first error: %w", cfg.Job, firstErr(errs))
	}
	p.logf("distrib: job=%s ready with %d workers", cfg.Job, len(live))
	return &Comparator{pool: p, cfg: cfg, workers: live, stats: make(map[string]*message)}, nil
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setupWorker ships one worker everything it needs for the job and
// waits for its engine to come up.
func (p *Pool) setupWorker(w *worker, spec *smc.Spec, alice, bob [][]int64, cfg JobConfig) error {
	setup := &message{
		Kind: kindSetup, Job: cfg.Job, Engine: cfg.Engine, KeyBits: cfg.KeyBits,
		Spec: spec, Lanes: cfg.Lanes,
	}
	if err := w.link.Send(setup); err != nil {
		return fmt.Errorf("sending setup: %w", err)
	}
	for holder, rows := range [2][][]int64{alice, bob} {
		for base := 0; base < len(rows); base += recordShipChunk {
			hi := base + recordShipChunk
			if hi > len(rows) {
				hi = len(rows)
			}
			if err := w.link.Send(&message{Kind: kindRecords, Holder: holder, Base: base, Rows: rows[base:hi]}); err != nil {
				return fmt.Errorf("shipping records: %w", err)
			}
		}
	}
	if err := w.link.Send(&message{Kind: kindSetupDone, Job: cfg.Job}); err != nil {
		return fmt.Errorf("finishing setup: %w", err)
	}
	for {
		m, err := p.await(w)
		if err != nil {
			return err
		}
		switch m.Kind {
		case kindReady:
			return nil
		case kindError:
			return fmt.Errorf("worker %s: %s", w.name, m.Err)
		default:
			// Stale frame from a previous job; the job lock makes these
			// rare, but a late verdict after a reassignment is harmless.
		}
	}
}

// Factory adapts the pool to the engine's comparator-factory signature
// (core.ComparatorFactory): the workers argument caps per-worker lanes
// when cfg.Lanes does not set its own.
func (p *Pool) Factory(cfg JobConfig) func(alice, bob [][]int64, spec *smc.Spec, workers int) (smc.Comparator, error) {
	return func(alice, bob [][]int64, spec *smc.Spec, workers int) (smc.Comparator, error) {
		c := cfg
		if c.Lanes == 0 {
			c.Lanes = workers
		}
		return p.NewComparator(spec, alice, bob, c)
	}
}

// Comparator stripes comparison batches across the pool's worker fleet.
// It implements smc.Comparator plus the batch and chunk-hint extensions
// the core engine probes for. Like every Comparator in this codebase it
// is driven from one goroutine; the parallelism lives inside
// CompareBatch.
type Comparator struct {
	pool    *Pool
	cfg     JobConfig
	workers []*worker

	chunkSeq    int
	invocations int64
	statsMu     sync.Mutex
	stats       map[string]*message // latest cumulative stats per worker

	closeOnce sync.Once
}

// live filters the job's workers down to those still connected.
func (c *Comparator) live() []*worker {
	var out []*worker
	for _, w := range c.workers {
		if w.alive() {
			out = append(out, w)
		}
	}
	return out
}

// Compare implements smc.Comparator.
func (c *Comparator) Compare(i, j int) (bool, error) {
	v, err := c.CompareBatch([][2]int{{i, j}})
	if err != nil {
		return false, err
	}
	return v[0], nil
}

// chunkJob is one dispatchable slice of a batch.
type chunkJob struct {
	idx    int
	lo, hi int
}

// CompareBatch resolves the batch across the fleet: the batch splits
// into ChunkPairs-sized chunks, live workers drain the chunk queue
// concurrently, and a dead worker's chunk is reassigned to a survivor.
// Verdicts land positionally, so the merged result is byte-identical to
// a single-process run regardless of scheduling. The error case is
// total fleet loss with chunks still outstanding.
func (c *Comparator) CompareBatch(pairs [][2]int) ([]bool, error) {
	out := make([]bool, len(pairs))
	var chunks []chunkJob
	for lo := 0; lo < len(pairs); lo += c.cfg.ChunkPairs {
		hi := lo + c.cfg.ChunkPairs
		if hi > len(pairs) {
			hi = len(pairs)
		}
		chunks = append(chunks, chunkJob{idx: c.chunkSeq, lo: lo, hi: hi})
		c.chunkSeq++
	}
	for len(chunks) > 0 {
		ws := c.live()
		if len(ws) == 0 {
			return nil, fmt.Errorf("distrib: job %s: all workers lost with %d chunks outstanding", c.cfg.Job, len(chunks))
		}
		var (
			qmu   sync.Mutex
			queue = chunks
			retry []chunkJob
			wg    sync.WaitGroup
		)
		pop := func() (chunkJob, bool) {
			qmu.Lock()
			defer qmu.Unlock()
			if len(queue) == 0 {
				return chunkJob{}, false
			}
			ch := queue[0]
			queue = queue[1:]
			return ch, true
		}
		for _, w := range ws {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				for {
					ch, ok := pop()
					if !ok {
						return
					}
					if err := c.doChunk(w, ch, pairs, out); err != nil {
						c.pool.failWorker(w, c.cfg.Job, ch.idx, err)
						qmu.Lock()
						retry = append(retry, ch)
						qmu.Unlock()
						return
					}
				}
			}(w)
		}
		wg.Wait()
		// Chunks never popped (every worker died first) join the failed
		// ones for the next round with whatever fleet remains.
		chunks = append(retry, queue...)
	}
	c.invocations += int64(len(pairs))
	return out, nil
}

// doChunk runs one chunk on one worker and merges its verdicts.
func (c *Comparator) doChunk(w *worker, ch chunkJob, pairs [][2]int, out []bool) error {
	sub, start := pairs[ch.lo:ch.hi], time.Now()
	if err := w.link.Send(&message{Kind: kindChunk, Job: c.cfg.Job, Chunk: ch.idx, Pairs: sub}); err != nil {
		return fmt.Errorf("sending chunk: %w", err)
	}
	for {
		m, err := c.pool.await(w)
		if err != nil {
			return err
		}
		switch m.Kind {
		case kindVerdicts:
			if m.Chunk != ch.idx {
				continue // stale reply from before a reassignment
			}
			if len(m.Verdicts) != len(sub) {
				return fmt.Errorf("worker %s returned %d verdicts for %d pairs", w.name, len(m.Verdicts), len(sub))
			}
			copy(out[ch.lo:ch.hi], m.Verdicts)
			c.statsMu.Lock()
			c.stats[w.name] = m
			c.statsMu.Unlock()
			w.rec.chunks.Observe(time.Since(start))
			c.pool.logf("distrib: job=%s chunk=%d worker=%s pairs=%d done", c.cfg.Job, ch.idx, w.name, len(sub))
			return nil
		case kindError:
			return fmt.Errorf("worker %s: %s", w.name, m.Err)
		default:
			continue
		}
	}
}

// ChunkHint tells the core engine how many pairs per batch keep the
// fleet saturated: a few chunks in flight per live worker.
func (c *Comparator) ChunkHint() int {
	n := c.cfg.ChunkPairs * len(c.live()) * 4
	if n > 16384 {
		n = 16384
	}
	return n
}

// Invocations implements smc.Comparator: verdicts delivered, each pair
// counted exactly once no matter how many times a chunk was reassigned
// — the paper's cost unit stays exact under worker churn.
func (c *Comparator) Invocations() int64 { return c.invocations }

// BytesTransferred implements smc.Comparator: the fleet's protocol
// traffic, summing each worker's latest cumulative report.
func (c *Comparator) BytesTransferred() int64 {
	return c.sumStats(func(m *message) int64 { return m.Bytes })
}

// ResultBytes mirrors the secure engines' result-message accounting.
func (c *Comparator) ResultBytes() int64 {
	return c.sumStats(func(m *message) int64 { return m.ResultB })
}

// Decryptions mirrors the secure engines' decryption accounting.
func (c *Comparator) Decryptions() int64 {
	return c.sumStats(func(m *message) int64 { return m.Decs })
}

func (c *Comparator) sumStats(f func(*message) int64) int64 {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	var total int64
	for _, m := range c.stats {
		total += f(m)
	}
	return total
}

// Close implements smc.Comparator: tears the job down on every worker
// and releases the pool's job slot.
func (c *Comparator) Close() error {
	c.closeOnce.Do(func() {
		for _, w := range c.live() {
			w.link.Send(&message{Kind: kindTeardown, Job: c.cfg.Job})
		}
		c.pool.jobMu.Unlock()
	})
	return nil
}
