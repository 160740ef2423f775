package testkit

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"pprl/internal/core"
	"pprl/internal/distrib"
	"pprl/internal/journal"
	"pprl/internal/smc"
)

// startFleet builds a pool with the given in-process workers attached
// over pipes and waits until all of them have registered.
func startFleet(t *testing.T, workers []distrib.WorkerOptions) *distrib.Pool {
	t.Helper()
	pool := distrib.NewPool(distrib.PoolOptions{HeartbeatTimeout: 30 * time.Second})
	t.Cleanup(func() { pool.Close() })
	for _, opts := range workers {
		coord, side := net.Pipe()
		go distrib.ServeWorker(side, opts)
		go func(c net.Conn) {
			if err := pool.AddConn(c); err != nil {
				c.Close()
			}
		}(coord)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := pool.WaitWorkers(ctx, len(workers)); err != nil {
		t.Fatal(err)
	}
	return pool
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

// startDoomedFleet is a two-worker fleet whose "doomed" worker serves one
// chunk and drops its connection on receipt of the next. From arm() —
// to be called once the job is set up — until that worker has exited, everything the survivor writes is held back, so
// the doomed worker is always handed its second chunk — no schedule lets
// the survivor drain the job first.
func startDoomedFleet(t *testing.T) (pool *distrib.Pool, arm func()) {
	t.Helper()
	pool = distrib.NewPool(distrib.PoolOptions{HeartbeatTimeout: 30 * time.Second})
	t.Cleanup(func() { pool.Close() })
	var armed atomic.Bool
	gone := make(chan struct{})
	for _, name := range []string{"doomed", "survivor"} {
		coord, side := net.Pipe()
		if name == "doomed" {
			go func() {
				distrib.ServeWorker(side, distrib.WorkerOptions{Name: name, FailAfterChunks: 1})
				close(gone)
			}()
		} else {
			go distrib.ServeWorker(heldConn{side, &armed, gone}, distrib.WorkerOptions{Name: name})
		}
		if err := pool.AddConn(coord); err != nil {
			t.Fatal(err)
		}
	}
	return pool, func() { armed.Store(true) }
}

// TestDistributedWorkerDeathMidChunk kills one fleet worker at a seeded
// chunk boundary mid-job: the doomed worker serves exactly one chunk and
// drops its connection with the next in flight. The coordinator must
// reassign that chunk and the rest to the survivor and finish with a
// stitched result
// that is verdict-identical to the local baseline — and because every
// chunk is delivered exactly once, the allowance spend and the journal's
// verdict count must both equal the baseline's (nothing re-purchased).
func TestDistributedWorkerDeathMidChunk(t *testing.T) {
	seed := baseSeed(t)
	for n := 0; n < 8; n++ {
		w := Generate(seed + int64(n))
		baseline, orcl, err := w.Run()
		if err != nil {
			t.Fatal(repro(w, err))
		}
		// Need at least three chunks so the death leaves work to reassign.
		if baseline.Invocations < 9 {
			continue
		}

		pool, arm := startDoomedFleet(t)
		path := filepath.Join(t.TempDir(), "dist.wal")
		wr, err := journal.Create(path, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := w.Cfg
		cfg.Journal = wr
		factory := pool.Factory(distrib.JobConfig{
			Job:        fmt.Sprintf("world-%d-kill", w.Seed),
			ChunkPairs: 3,
		})
		cfg.Comparator = func(alice, bob [][]int64, spec *smc.Spec, workers int) (smc.Comparator, error) {
			cmp, err := factory(alice, bob, spec, workers)
			arm() // set-up needs the survivor's replies; the chunks do not
			return cmp, err
		}
		res, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, cfg)
		if err != nil {
			t.Fatal(repro(w, err))
		}

		name := fmt.Sprintf("world=%d kill=doomed@chunk1", w.Seed)
		for i := 0; i < w.Alice.Len(); i++ {
			for j := 0; j < w.Bob.Len(); j++ {
				if baseline.PairMatched(i, j) != res.PairMatched(i, j) {
					t.Fatal(repro(w, fmt.Errorf("%s: pair (%d,%d) labeled %v, baseline %v", name, i, j, res.PairMatched(i, j), baseline.PairMatched(i, j))))
				}
			}
		}
		if res.Invocations != baseline.Invocations {
			t.Fatalf("%s: fleet spent %d comparisons, baseline %d — allowance re-spent on reassignment",
				name, res.Invocations, baseline.Invocations)
		}
		if got := int64(wr.Recorded()); got != baseline.Invocations {
			t.Fatalf("%s: journal recorded %d verdicts, want %d — a reassigned chunk was double-journaled",
				name, got, baseline.Invocations)
		}
		if err := wr.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := orcl.CheckResult(res); err != nil {
			t.Fatal(repro(w, fmt.Errorf("%s: %w", name, err)))
		}
		// The doomed worker must actually be gone from the fleet.
		if ws := pool.Workers(); len(ws) != 1 || ws[0] != "survivor" {
			t.Fatalf("%s: fleet = %v, want [survivor]", name, ws)
		}
		return
	}
	t.Skip("no generated world had enough Unknown pairs for a mid-job kill")
}
