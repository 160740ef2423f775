package smc

import (
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"sync/atomic"
	"testing"
	"time"

	"pprl/internal/paillier"
)

// TestPipelineWindowFor: the window shrinks to the smallest frame buffer
// among the session's connections and never drops below one request.
func TestPipelineWindowFor(t *testing.T) {
	wide, _ := NewConnPair()
	narrow, _ := NewConnPairBuffer(3)
	tiny, _ := NewConnPairBuffer(1)

	if w := pipelineWindowFor(wide, wide); w != defaultPipelineWindow {
		t.Errorf("wide window = %d, want %d", w, defaultPipelineWindow)
	}
	if w := pipelineWindowFor(wide, narrow); w != 3 {
		t.Errorf("narrow window = %d, want 3", w)
	}
	if w := pipelineWindowFor(tiny, narrow); w != 1 {
		t.Errorf("tiny window = %d, want 1", w)
	}
	// Unbuffered transports (e.g. TCP) keep the default.
	if w := pipelineWindowFor(); w != defaultPipelineWindow {
		t.Errorf("no-conn window = %d, want %d", w, defaultPipelineWindow)
	}
}

// TestCompareBatchTinyBuffer is the regression test for the pipelining
// window: with a frame buffer far below the default window, a large batch
// must still complete and return the same verdicts as the plaintext
// oracle. The session caps the result frames in flight at the buffer size
// and never opens a run the window has no room for, so no Send can
// deadlock against unread results — also when one Alice record meets far
// more of Bob's than the buffer holds.
func TestCompareBatchTinyBuffer(t *testing.T) {
	spec := testSpec()
	alice := shardedTestRecords(7, 11)
	bob := shardedTestRecords(7, 12)
	oneRun := make([][2]int, 40) // a single run, 8 to 40 times the buffer
	for k := range oneRun {
		oneRun[k] = [2]int{3, k % len(bob)}
	}
	for _, tc := range []struct {
		name   string
		buffer int
		pairs  [][2]int
	}{
		{"group walk, buffer 2", 2, allPairs(len(alice), len(bob))}, // 49 pairs ≫ buffer
		{"one long run, buffer 1", 1, oneRun},
		{"one long run, buffer 2", 2, oneRun},
		{"one long run, buffer 5", 5, oneRun},
	} {
		t.Run(tc.name, func(t *testing.T) {
			qa, aq := NewConnPairBuffer(tc.buffer)
			qb, bq := NewConnPairBuffer(tc.buffer)
			ab, ba := NewConnPairBuffer(tc.buffer)
			errs := make(chan error, 2)
			go func() { errs <- RunAlice(aq, ab, alice, spec) }()
			go func() { errs <- RunBob(bq, ba, bob, spec) }()

			q, err := NewQuerySession(qa, qb, spec, testKeyBits)
			if err != nil {
				t.Fatal(err)
			}
			if q.window != tc.buffer {
				t.Fatalf("session window = %d, want %d", q.window, tc.buffer)
			}

			got, err := q.CompareBatch(tc.pairs)
			if err != nil {
				t.Fatalf("CompareBatch over tiny buffer: %v", err)
			}
			for k, p := range tc.pairs {
				if truth := spec.Matches(alice[p[0]], bob[p[1]]); got[k] != truth {
					t.Errorf("pair %v: got %v, want %v", p, got[k], truth)
				}
			}

			if err := q.Close(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := <-errs; err != nil {
					t.Errorf("party loop: %v", err)
				}
			}
			for _, c := range []Conn{qa, qb, ab} {
				c.Close()
			}
		})
	}
}

// TestRunsFitWindowAndCap is the run policy as a property, over every
// in-memory frame buffer from 1 to 64 and over TCP, which declares none
// and gets the default window: no run is longer than half the window or
// the cap Bob enforces, every list completes on the bounded transports
// with the oracle's verdicts, and Bob receives exactly one share set per
// run opened — as many as the test's own splitter cuts.
func TestRunsFitWindowAndCap(t *testing.T) {
	spec := testSpec()
	alice := shardedTestRecords(6, 31)
	bob := shardedTestRecords(24, 32)
	sk, err := paillier.GenerateKey(rand.Reader, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	oneRun := make([][2]int, 2*maxRun+3) // a single record against more of Bob's than any run holds
	for k := range oneRun {
		oneRun[k] = [2]int{2, k % len(bob)}
	}
	type transport struct {
		name    string
		window  int
		connect func(testing.TB) (Conn, Conn)
	}
	var transports []transport
	for buffer := 1; buffer <= 64; buffer++ {
		transports = append(transports, transport{fmt.Sprintf("buffer-%d", buffer), min(buffer, defaultPipelineWindow),
			func(testing.TB) (Conn, Conn) { return NewConnPairBuffer(buffer) }})
	}
	transports = append(transports, transport{"tcp", defaultPipelineWindow, tcpConnPair})

	for seed, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			rng := mrand.New(mrand.NewSource(int64(seed)))
			lists := [][][2]int{allPairs(len(alice), len(bob)), oneRun, randomRunPairs(rng, len(alice), len(bob), 60)}
			qa, aq := tr.connect(t)
			qb, bq := tr.connect(t)
			ab, ba := tr.connect(t)
			defer func() {
				for _, c := range []Conn{qa, aq, qb, bq, ab, ba} {
					c.Close()
				}
			}()
			requests := &tapConn{Conn: bq} // what Bob is asked, his run lists among it
			shares := new(atomic.Int64)
			errs := make(chan error, 2)
			go func() { errs <- RunAlice(aq, ab, alice, spec) }()
			go func() { errs <- RunBob(requests, shareCounter{ba, shares}, bob, spec) }()
			q, err := newQuerySessionWithKey(qa, qb, spec, sk)
			if err != nil {
				t.Fatal(err)
			}
			if q.window != tr.window {
				t.Fatalf("window = %d, want %d", q.window, tr.window)
			}
			var wantRuns int64
			for _, pairs := range lists {
				type outcome struct {
					got []bool
					err error
				}
				done := make(chan outcome, 1)
				go func() {
					got, err := q.CompareBatch(pairs)
					done <- outcome{got, err}
				}()
				var out outcome
				select {
				case out = <-done:
				case <-time.After(30 * time.Second):
					t.Fatalf("a list of %d pairs did not complete at window %d", len(pairs), q.window)
				}
				if out.err != nil {
					t.Fatalf("CompareBatch: %v", out.err)
				}
				for k, p := range pairs {
					if want := spec.Matches(alice[p[0]], bob[p[1]]); out.got[k] != want {
						t.Fatalf("pair %d %v: verdict %v, want %v", k, p, out.got[k], want)
					}
				}
				wantRuns += wantShareSets(pairs, q.window)
			}
			if err := q.Close(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := <-errs; err != nil {
					t.Fatalf("party loop: %v", err)
				}
			}
			// Bob's loop has returned: what he was asked and sent is final.
			var lengths []int
			for _, m := range requests.seen {
				if m.Kind == MsgCompare {
					lengths = append(lengths, len(m.Records))
				}
			}
			if int64(len(lengths)) != wantRuns {
				t.Errorf("%d runs opened, want %d", len(lengths), wantRuns)
			}
			if n := shares.Load(); n != int64(len(lengths)) {
				t.Errorf("%d share sets sent for %d runs opened", n, len(lengths))
			}
			for _, n := range lengths {
				if n > maxRun || n > max(q.window/2, 1) {
					t.Fatalf("a run of %d pairs at window %d: longer than half the window or the cap %d", n, q.window, maxRun)
				}
			}
		})
	}
}
