package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pprl/internal/anonymize"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/journal"
	"pprl/internal/smc"
)

// The wrappers below sit at the seams the program's API already offers
// (core.Config.Comparator / Anonymizer / Journal, smc.Conn, net.Conn).
// Each forwards every call unchanged; what it adds is a timestamp pair,
// a count, a reference-sample seam, or a check against the oracle.

// op is one timed closed-loop operation; cal is calibration time that
// ran inside it and is not the operation's.
type op struct {
	start, end time.Time
	cal        time.Duration
	after      time.Duration // the engine's background work the next seam waited out
	n          int           // comparisons in the call
}

// cmpStats is what a wrapped comparator observed over one link.
type cmpStats struct {
	construct   time.Duration
	ops         []op
	busy        time.Duration
	purchased   int64
	bytes       int64
	resultBytes int64
	decs        int64
	mismatches  int64 // verdicts that differ from the plaintext oracle
}

type batcher interface {
	CompareBatch([][2]int) ([]bool, error)
}

// cmpWrap times every call into the comparator, offers the region a
// seam before each one, and checks each returned verdict against the
// plaintext oracle after the call, outside the timed slice.
type cmpWrap struct {
	inner  smc.Comparator
	hint   int
	oracle *smc.PlainComparator
	st     *cmpStats
	reg    *region
	tr     *tracer
	parent int
}

// wrapFactory wraps a comparator factory. hint > 0 makes the wrapper
// declare that ChunkHint; otherwise the inner comparator's own hint, if
// any, is forwarded. flip sabotages one verdict (the test canary).
func wrapFactory(inner core.ComparatorFactory, hint int, st *cmpStats, reg *region, tr *tracer, parent int, flip bool) core.ComparatorFactory {
	return func(alice, bob [][]int64, spec *smc.Spec, workers int) (smc.Comparator, error) {
		id := tr.begin("smc.construct", parent)
		t0 := time.Now()
		cmp, err := inner(alice, bob, spec, workers)
		st.construct = time.Since(t0)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if flip {
			cmp = &flipCmp{Comparator: cmp}
		}
		return &cmpWrap{inner: cmp, hint: hint, oracle: smc.NewPlainComparator(spec, alice, bob),
			st: st, reg: reg, tr: tr, parent: parent}, nil
	}
}

func (c *cmpWrap) ChunkHint() int {
	if c.hint > 0 {
		return c.hint
	}
	if h, ok := c.inner.(interface{ ChunkHint() int }); ok {
		return h.ChunkHint()
	}
	return 0
}

func (c *cmpWrap) CompareBatch(pairs [][2]int) ([]bool, error) {
	// The engine's background refill that the seam waited out is the
	// comparator's time as much as the call itself.
	c.settled(c.reg.seam())
	id := c.tr.begin("smc.batch", c.parent)
	t0 := time.Now()
	var out []bool
	var err error
	if b, ok := c.inner.(batcher); ok {
		out, err = b.CompareBatch(pairs)
	} else {
		out = make([]bool, len(pairs))
		for x, p := range pairs {
			if out[x], err = c.inner.Compare(p[0], p[1]); err != nil {
				break
			}
		}
	}
	t1 := time.Now()
	c.tr.end(id)
	if err != nil {
		return nil, err
	}
	c.st.ops = append(c.st.ops, op{start: t0, end: t1, n: len(pairs)})
	c.st.busy += t1.Sub(t0)
	c.st.purchased += int64(len(pairs))
	for x, p := range pairs {
		if want, _ := c.oracle.Compare(p[0], p[1]); want != out[x] {
			c.st.mismatches++
		}
	}
	return out, nil
}

// settled books a seam's wait for the engine's background work: it is
// the comparator's time, and the time of the call that left it behind.
func (c *cmpWrap) settled(d time.Duration) {
	c.st.busy += d
	if n := len(c.st.ops); n > 0 {
		c.st.ops[n-1].after += d
	}
}

func (c *cmpWrap) Compare(i, j int) (bool, error) {
	out, err := c.CompareBatch([][2]int{{i, j}})
	if err != nil {
		return false, err
	}
	return out[0], nil
}

func (c *cmpWrap) Invocations() int64      { return c.inner.Invocations() }
func (c *cmpWrap) BytesTransferred() int64 { return c.inner.BytesTransferred() }

// Close reads the engine's exact counters before releasing it.
func (c *cmpWrap) Close() error {
	c.settled(c.reg.seam())
	c.st.bytes = c.inner.BytesTransferred()
	if rb, ok := c.inner.(interface{ ResultBytes() int64 }); ok {
		c.st.resultBytes = rb.ResultBytes()
	}
	if dc, ok := c.inner.(interface{ Decryptions() int64 }); ok {
		c.st.decs = dc.Decryptions()
	}
	id := c.tr.begin("smc.close", c.parent)
	err := c.inner.Close()
	c.tr.end(id)
	return err
}

// flipCmp is the canary: it inverts the first verdict it returns, so a
// test can show the oracle check turns a wrong verdict into a failure.
type flipCmp struct {
	smc.Comparator
	done bool
}

func (f *flipCmp) CompareBatch(pairs [][2]int) ([]bool, error) {
	out, err := f.Comparator.(batcher).CompareBatch(pairs)
	if err == nil && !f.done && len(out) > 0 {
		out[0] = !out[0]
		f.done = true
	}
	return out, err
}

// anonWrap records one span per Anonymize call. Name is forwarded so
// the run's config digest is the unwrapped anonymizer's.
type anonWrap struct {
	inner  anonymize.Anonymizer
	span   string
	tr     *tracer
	parent int
	took   *time.Duration
}

func (a *anonWrap) Name() string { return a.inner.Name() }

func (a *anonWrap) Anonymize(d *dataset.Dataset, qids []int, k int) (*anonymize.Result, error) {
	id := a.tr.begin(a.span, a.parent)
	t0 := time.Now()
	res, err := a.inner.Anonymize(d, qids, k)
	*a.took = time.Since(t0)
	a.tr.end(id)
	return res, err
}

// sinkStats is what a wrapped journal sink observed.
type sinkStats struct {
	busy     time.Duration
	syncs    int64
	verdicts []journal.Verdict
}

// sinkWrap wraps the frozen-run journal.Sink: it times every call,
// keeps the purchased verdicts for the oracle check, and tells its
// owner when a call returns (onRecord/onBegin), which is where the
// session workload finds its seams.
type sinkWrap struct {
	inner    journal.Sink
	st       *sinkStats
	tr       *tracer
	parent   int
	onBegin  func()
	onRecord func(n int)
	// quiet keeps only the totals: no span and no stored verdict per
	// record. A live dataset journals millions of verdicts.
	quiet   bool
	records int
}

const quietSample = 64

func (s *sinkWrap) timed(name string, f func() error) error {
	id := 0
	if !s.quiet {
		id = s.tr.begin(name, s.parent)
	}
	t0 := time.Now()
	err := f()
	s.st.busy += time.Since(t0)
	s.tr.end(id)
	return err
}

func (s *sinkWrap) Begin(m journal.Manifest) (prior []journal.Verdict, err error) {
	err = s.timed("journal.begin", func() error {
		prior, err = s.inner.Begin(m)
		return err
	})
	s.st.syncs++ // Begin makes the manifest durable before returning
	if s.onBegin != nil {
		s.onBegin()
	}
	return prior, err
}

func (s *sinkWrap) Record(i, j int, matched bool) error {
	if s.quiet {
		// Two clock reads around each of millions of appends would cost
		// more than the appends: time one in quietSample and scale.
		s.records++
		if s.records%quietSample != 0 {
			return s.inner.Record(i, j, matched)
		}
		t0 := time.Now()
		err := s.inner.Record(i, j, matched)
		s.st.busy += quietSample * time.Since(t0)
		return err
	}
	err := s.timed("journal.record", func() error { return s.inner.Record(i, j, matched) })
	s.st.verdicts = append(s.st.verdicts, journal.Verdict{I: uint32(i), J: uint32(j), Matched: matched})
	if s.onRecord != nil {
		s.onRecord(len(s.st.verdicts))
	}
	return err
}

func (s *sinkWrap) RecordTier(i, j int, matched bool) error {
	return s.timed("journal.record", func() error { return s.inner.RecordTier(i, j, matched) })
}

func (s *sinkWrap) Sync() error {
	s.st.syncs++
	return s.timed("journal.sync", func() error { return s.inner.Sync() })
}

// batchSinkWrap is the same for a live dataset's journal.BatchSink;
// the engine calls it from its drainer goroutine only.
type batchSinkWrap struct {
	sinkWrap
	inner journal.BatchSink
	frame int
}

// One span covers a batch's whole frame, mark to commit.
func (b *batchSinkWrap) RecordBatch(m journal.BatchMark) error {
	b.frame = b.tr.begin("journal.frame", 0)
	return b.timed("journal.batch", func() error { return b.inner.RecordBatch(m) })
}

func (b *batchSinkWrap) RecordBatchCommit(c journal.BatchCommit) error {
	err := b.timed("journal.commit", func() error { return b.inner.RecordBatchCommit(c) })
	b.tr.end(b.frame)
	b.st.syncs++ // the commit is durable before its deltas are exposed
	return err
}

// spyStats is what the querying party's wrapped connections observed.
type spyStats struct {
	roundStart time.Time // first compare request since the last reset
	lastResult time.Time
	viewBytes  int64
	resultCts  int64 // ciphertexts in MsgResult frames = decryptions owed
	results    int64
	// onResult, when set, runs after every result frame: the session
	// workload takes its in-round seams there.
	onResult func(results int64)
}

// spyConn wraps one of the querying party's smc.Conn ends. RunQuery
// drives both from a single goroutine, so the shared stats need no lock.
type spyConn struct {
	smc.Conn
	st     *spyStats
	tr     *tracer
	parent int
}

func (c *spyConn) Send(m *smc.Message) error {
	if m.Kind == smc.MsgCompare && c.st.roundStart.IsZero() {
		c.st.roundStart = time.Now()
	}
	id := c.tr.begin("session.send", c.parent)
	err := c.Conn.Send(m)
	c.tr.end(id)
	return err
}

func (c *spyConn) Recv() (*smc.Message, error) {
	id := c.tr.begin("session.recv", c.parent)
	m, err := c.Conn.Recv()
	c.tr.end(id)
	if err == nil {
		switch m.Kind {
		case smc.MsgView:
			c.st.viewBytes += int64(len(m.View))
		case smc.MsgResult:
			c.st.lastResult = time.Now()
			c.st.resultCts += int64(len(m.Res))
			c.st.results++
			if c.st.onResult != nil {
				c.st.onResult(c.st.results)
			}
		}
	}
	return m, err
}

// ioEvent is one Read or Write on a fleet link.
type ioEvent struct {
	at    time.Time
	n     int
	write bool
}

// countConn wraps a fleet link's net.Conn on the coordinator side: it
// counts bytes in both directions and, when tracing, keeps the time and
// size of every Read and Write so chunk round-trips can be recovered
// from outside the gob framing.
type countConn struct {
	net.Conn
	read, written atomic.Int64
	// beats counts the bytes of Reads too small to carry work: the
	// workers' once-a-second heartbeats, whose number follows wall time,
	// not the work done.
	beats atomic.Int64

	trace  bool
	mu     sync.Mutex
	events []ioEvent
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	if n < chunkMinBytes {
		c.beats.Add(int64(n))
	}
	if c.trace && n > 0 {
		c.mu.Lock()
		c.events = append(c.events, ioEvent{at: time.Now(), n: n})
		c.mu.Unlock()
	}
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	if c.trace && n > 0 {
		c.mu.Lock()
		c.events = append(c.events, ioEvent{at: t0, n: n, write: true})
		c.mu.Unlock()
	}
	return n, err
}

func (c *countConn) total() int64 { return c.read.Load() + c.written.Load() }

// work is total without the heartbeats.
func (c *countConn) work() int64 { return c.total() - c.beats.Load() }
