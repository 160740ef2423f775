package smc

import (
	"testing"
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
