package distrib

import (
	"context"
	"errors"
	"log"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"pprl/internal/smc"
)

// testSpec is a two-attribute classifier: an equality test and a squared
// threshold, enough to exercise both verdict outcomes.
func testSpec() *smc.Spec {
	return &smc.Spec{
		Scale: 1,
		Attrs: []smc.AttrSpec{
			{Mode: smc.ModeEquality},
			{Mode: smc.ModeThreshold, T: 9},
		},
	}
}

// testRecords builds n deterministic pseudo-random encoded records.
func testRecords(n int, seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int64, n)
	for i := range out {
		out[i] = []int64{int64(rng.Intn(4)), int64(rng.Intn(12))}
	}
	return out
}

// allPairs enumerates the full cross product.
func allPairs(na, nb int) [][2]int {
	out := make([][2]int, 0, na*nb)
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// startWorker wires one in-process worker into the pool over a pipe and
// returns after registration completes.
func startWorker(t *testing.T, p *Pool, opts WorkerOptions) {
	t.Helper()
	coord, work := net.Pipe()
	serveWorker(t, p, coord, work, opts)
}

// serveWorker runs a worker on its end of a connection — which a test may
// have wrapped — and registers the other end with the pool.
func serveWorker(t *testing.T, p *Pool, coord, work net.Conn, opts WorkerOptions) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- ServeWorker(work, opts) }()
	t.Cleanup(func() {
		work.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("worker did not exit")
		}
	})
	if err := p.AddConn(coord); err != nil {
		t.Fatalf("AddConn: %v", err)
	}
}

func newTestPool(t *testing.T) *Pool {
	t.Helper()
	p := NewPool(PoolOptions{HeartbeatTimeout: 5 * time.Second})
	t.Cleanup(func() { p.Close() })
	return p
}

// heldConn is a worker's end of its link whose writes wait, once the hold
// is armed, for release to close.
type heldConn struct {
	net.Conn
	armed   *atomic.Bool
	release <-chan struct{}
}

func (c heldConn) Write(b []byte) (int, error) {
	if c.armed.Load() {
		<-c.release
	}
	return c.Conn.Write(b)
}

// TestWorkerDeathReassignment kills one of two workers on the chunk after
// its first; the batch still completes, verdict-identical, with the dead
// worker's chunk reassigned to the survivor. The survivor's replies are
// held back until the pool has marked the doomed worker dead, so the
// doomed one is always handed its second chunk — no schedule lets the
// survivor drain the queue first.
func TestWorkerDeathReassignment(t *testing.T) {
	spec := testSpec()
	alice := testRecords(30, 3)
	bob := testRecords(30, 4)
	pairs := allPairs(len(alice), len(bob))

	p := NewPool(PoolOptions{HeartbeatTimeout: 5 * time.Second})
	defer p.Close()
	startWorker(t, p, WorkerOptions{Name: "doomed", HeartbeatEvery: 50 * time.Millisecond, FailAfterChunks: 1})
	p.mu.Lock()
	doomed := p.workers["doomed"]
	p.mu.Unlock()
	var hold atomic.Bool
	coord, work := net.Pipe()
	serveWorker(t, p, coord, heldConn{work, &hold, doomed.dead}, WorkerOptions{Name: "survivor", HeartbeatEvery: 50 * time.Millisecond})

	cmp, err := p.NewComparator(spec, alice, bob, JobConfig{Job: "churn", ChunkPairs: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer cmp.Close()
	hold.Store(true)
	got, err := cmp.CompareBatch(pairs)
	if err != nil {
		t.Fatalf("batch failed despite a surviving worker: %v", err)
	}
	for x, pr := range pairs {
		if got[x] != spec.Matches(alice[pr[0]], bob[pr[1]]) {
			t.Fatalf("pair %v wrong after reassignment", pr)
		}
	}
	if cmp.Invocations() != int64(len(pairs)) {
		t.Errorf("invocations = %d, want %d (reassigned chunks must not double-count)", cmp.Invocations(), len(pairs))
	}
	if ws := p.Workers(); len(ws) != 1 || ws[0] != "survivor" {
		t.Errorf("fleet after death = %v, want [survivor]", ws)
	}
	recs := p.Records()
	if len(recs) != 2 || recs[0].Name != "doomed" || recs[0].Live || recs[0].Failures != 1 {
		t.Errorf("failure counter missing: the pool's records are %+v", recs)
	}
}

// TestAllWorkersDead: when every worker dies mid-batch the comparator
// reports the outstanding chunks instead of hanging.
func TestAllWorkersDead(t *testing.T) {
	spec := testSpec()
	alice := testRecords(20, 5)
	bob := testRecords(20, 6)
	p := newTestPool(t)
	startWorker(t, p, WorkerOptions{Name: "w1", HeartbeatEvery: 50 * time.Millisecond, FailAfterChunks: 1})
	cmp, err := p.NewComparator(spec, alice, bob, JobConfig{Job: "doom", ChunkPairs: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer cmp.Close()
	_, err = cmp.CompareBatch(allPairs(20, 20))
	if err == nil || !strings.Contains(err.Error(), "outstanding") {
		t.Fatalf("total fleet loss returned %v, want outstanding-chunks error", err)
	}
}

// TestSequentialJobsReuseFleet runs two jobs through one pool; teardown
// and re-setup must leave the workers reusable.
func TestSequentialJobsReuseFleet(t *testing.T) {
	spec := testSpec()
	p := newTestPool(t)
	startWorker(t, p, WorkerOptions{Name: "w1", HeartbeatEvery: 50 * time.Millisecond})
	startWorker(t, p, WorkerOptions{Name: "w2", HeartbeatEvery: 50 * time.Millisecond})
	for round := 0; round < 2; round++ {
		alice := testRecords(15, int64(10+round))
		bob := testRecords(15, int64(20+round))
		pairs := allPairs(15, 15)
		cmp, err := p.NewComparator(spec, alice, bob, JobConfig{ChunkPairs: 16})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got, err := cmp.CompareBatch(pairs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for x, pr := range pairs {
			if got[x] != spec.Matches(alice[pr[0]], bob[pr[1]]) {
				t.Fatalf("round %d pair %v wrong", round, pr)
			}
		}
		if err := cmp.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRegistrationNamesAndWait: duplicate names are disambiguated,
// WaitWorkers unblocks at the threshold, and anonymous workers get
// generated names.
func TestRegistrationNamesAndWait(t *testing.T) {
	p := newTestPool(t)
	startWorker(t, p, WorkerOptions{Name: "dup", HeartbeatEvery: 50 * time.Millisecond})
	startWorker(t, p, WorkerOptions{Name: "dup", HeartbeatEvery: 50 * time.Millisecond})
	startWorker(t, p, WorkerOptions{HeartbeatEvery: 50 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.WaitWorkers(ctx, 3); err != nil {
		t.Fatal(err)
	}
	ws := p.Workers()
	if len(ws) != 3 {
		t.Fatalf("Workers() = %v, want 3 entries", ws)
	}
	seen := map[string]bool{}
	for _, n := range ws {
		if n == "" || seen[n] {
			t.Fatalf("Workers() = %v: empty or duplicate name", ws)
		}
		seen[n] = true
	}
	if !seen["dup"] {
		t.Errorf("first registrant lost its name: %v", ws)
	}
}

// TestSecureEngineFleet runs the real three-party Paillier protocol
// inside each worker at a tiny key size and pins verdicts to the oracle.
func TestSecureEngineFleet(t *testing.T) {
	spec := testSpec()
	alice := testRecords(6, 7)
	bob := testRecords(6, 8)
	pairs := allPairs(6, 6)
	p := newTestPool(t)
	startWorker(t, p, WorkerOptions{Name: "s1", Lanes: 2, HeartbeatEvery: 50 * time.Millisecond})
	startWorker(t, p, WorkerOptions{Name: "s2", HeartbeatEvery: 50 * time.Millisecond})
	cmp, err := p.NewComparator(spec, alice, bob, JobConfig{Job: "secure", Engine: EngineSecure, KeyBits: 256, ChunkPairs: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer cmp.Close()
	got, err := cmp.CompareBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for x, pr := range pairs {
		if got[x] != spec.Matches(alice[pr[0]], bob[pr[1]]) {
			t.Fatalf("secure fleet pair %v wrong", pr)
		}
	}
	if cmp.BytesTransferred() <= 0 {
		t.Error("secure fleet reported zero protocol traffic")
	}
	if cmp.Decryptions() <= 0 {
		t.Error("secure fleet reported zero decryptions")
	}
}

// TestDialWorker registers a worker with AddConn over real TCP: the
// handshake only needs the worker to speak first, whichever end dialed.
func TestDialWorker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		ServeWorker(conn, WorkerOptions{Name: "tcp-w", HeartbeatEvery: 50 * time.Millisecond})
	}()
	p := newTestPool(t)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddConn(conn); err != nil {
		t.Fatal(err)
	}
	if ws := p.Workers(); len(ws) != 1 || ws[0] != "tcp-w" {
		t.Fatalf("Workers() = %v", ws)
	}
}

// flakyListener fails its first Accept the way a process out of file
// descriptors does, then accepts normally.
type flakyListener struct {
	net.Listener
	failed atomic.Bool
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if !l.failed.Swap(true) {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// TestServeRetriesFailedAccept: a failed Accept is logged and retried, so
// a worker that dials after it still registers; Serve returns, wrapping
// net.ErrClosed, only once the pool closes.
func TestServeRetriesFailedAccept(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	logs := new(syncBuffer)
	p := NewPool(PoolOptions{Logger: log.New(logs, "", 0)})
	defer p.Close()
	served := make(chan error, 1)
	go func() { served <- p.Serve(&flakyListener{Listener: ln}) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go ServeWorker(conn, WorkerOptions{Name: "late", HeartbeatEvery: 50 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := p.WaitWorkers(ctx, 1); err != nil {
		select {
		case err := <-served:
			t.Fatalf("Serve returned %v after one failed Accept; no worker registered", err)
		default:
			t.Fatal(err)
		}
	}
	if !strings.Contains(logs.String(), "too many open files") {
		t.Errorf("failed Accept not logged:\n%s", logs)
	}

	p.Close()
	select {
	case err := <-served:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("Serve after Close returned %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

// syncBuffer is a log sink the test reads while the pool writes.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestUnknownEngineRefused: a job naming an engine this worker does not
// build — Engine(2), the sleep-calibrated engine older coordinators
// could name — gets the worker's refusal as a setup error, not a hang.
func TestUnknownEngineRefused(t *testing.T) {
	p := newTestPool(t)
	startWorker(t, p, WorkerOptions{Name: "u1", HeartbeatEvery: 50 * time.Millisecond})
	_, err := p.NewComparator(testSpec(), testRecords(4, 9), testRecords(4, 10), JobConfig{Engine: Engine(2)})
	if err == nil || !strings.Contains(err.Error(), "unknown engine 2") {
		t.Fatalf("Engine(2) job returned %v, want the worker's unknown-engine refusal", err)
	}
	// A secure engine that cannot be built is refused the same way, and the
	// worker the pool then drops exits cleanly (startWorker waits for it).
	p = newTestPool(t)
	startWorker(t, p, WorkerOptions{Name: "u2", HeartbeatEvery: 50 * time.Millisecond})
	_, err = p.NewComparator(testSpec(), testRecords(4, 9), testRecords(4, 10), JobConfig{Engine: EngineSecure, KeyBits: 64})
	if err == nil || !strings.Contains(err.Error(), "use a larger key") {
		t.Fatalf("64-bit secure job returned %v, want the worker's modulus-fit refusal", err)
	}
}

// TestRecordsWhileServing: the pool's records are read while chunks land
// (run under -race), and once the batch is done every chunk is in exactly
// one worker's record with a round trip.
func TestRecordsWhileServing(t *testing.T) {
	spec := testSpec()
	alice, bob := testRecords(20, 7), testRecords(20, 8)
	p := newTestPool(t)
	startWorker(t, p, WorkerOptions{Name: "w1", HeartbeatEvery: 50 * time.Millisecond})
	startWorker(t, p, WorkerOptions{Name: "w2", HeartbeatEvery: 50 * time.Millisecond})
	cmp, err := p.NewComparator(spec, alice, bob, JobConfig{Job: "records", ChunkPairs: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cmp.Close()
	done := make(chan error)
	go func() {
		_, err := cmp.CompareBatch(allPairs(20, 20))
		done <- err
	}()
	for served := false; !served; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			served = true
		default:
			p.Records()
		}
	}
	var chunks int64
	for _, r := range p.Records() {
		if !r.Live || r.Failures != 0 || r.LastBeat.IsZero() || r.Chunks.Ns <= 0 && r.Chunks.Count() > 0 {
			t.Errorf("record %+v", r)
		}
		chunks += r.Chunks.Count()
	}
	if chunks != 400/8 {
		t.Errorf("the records hold %d chunks, want %d", chunks, 400/8)
	}
}
