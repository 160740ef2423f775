package service

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pprl/internal/cliutil"
)

func specN(n string) JobSpec {
	return JobSpec{Job: cliutil.Job{AlicePath: n + "-a.csv", BobPath: n + "-b.csv"}}
}

// waitSettled waits until j stops executing in this process — terminal
// states and checkpointed interruptions alike.
func waitSettled(t *testing.T, j *Job) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		changed := j.Progress.Watch()
		if st := j.State(); st != StateQueued && st != StateRunning {
			return
		}
		select {
		case <-changed:
		case <-timeout:
			t.Fatalf("job %s never settled (state %s)", j.ID, j.State())
		}
	}
}

// TestSchedulerFIFO: with one worker, jobs run strictly in submission
// order.
func TestSchedulerFIFO(t *testing.T) {
	var mu sync.Mutex
	var order []string
	s := NewScheduler(1, func(ctx context.Context, j *Job) {
		mu.Lock()
		order = append(order, j.ID)
		mu.Unlock()
		j.finish(StateDone, "")
	})
	defer s.Drain()

	var jobs []*Job
	for i := 1; i <= 5; i++ {
		j := newJob(jobKind.id(i), specN("x"), time.Now())
		jobs = append(jobs, j)
		if err := s.Enqueue(j); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		waitSettled(t, j)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 5 {
		t.Fatalf("ran %d jobs, want 5", len(order))
	}
	for i, id := range order {
		if want := jobKind.id(i + 1); id != want {
			t.Errorf("position %d ran %s, want %s", i, id, want)
		}
	}
}

// TestSchedulerConcurrencyBound: with W workers and N>W jobs, never more
// than W run at once, and all complete.
func TestSchedulerConcurrencyBound(t *testing.T) {
	const workers, n = 3, 12
	var current, peak atomic.Int64
	s := NewScheduler(workers, func(ctx context.Context, j *Job) {
		c := current.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		current.Add(-1)
		j.finish(StateDone, "")
	})
	defer s.Drain()

	var jobs []*Job
	for i := 1; i <= n; i++ {
		j := newJob(jobKind.id(i), specN("x"), time.Now())
		jobs = append(jobs, j)
		if err := s.Enqueue(j); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		waitSettled(t, j)
		if st := j.State(); st != StateDone {
			t.Errorf("job %s settled as %s", j.ID, st)
		}
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent jobs, bound is %d", p, workers)
	}
}

// blockingExec mimics the server executor's settle logic: run until the
// context ends, then settle as canceled or interrupted.
func blockingExec(started chan<- *Job) func(ctx context.Context, j *Job) {
	return func(ctx context.Context, j *Job) {
		if started != nil {
			started <- j
		}
		<-ctx.Done()
		if j.UserCanceled() {
			j.finish(StateCanceled, "canceled")
		} else {
			j.finish(StateInterrupted, "interrupted")
		}
	}
}

// TestSchedulerCancelQueued: canceling a job that has not started takes
// it out of the queue at once, and it never runs.
func TestSchedulerCancelQueued(t *testing.T) {
	started := make(chan *Job, 2)
	s := NewScheduler(1, blockingExec(started))

	first := newJob(jobKind.id(1), specN("x"), time.Now())
	second := newJob(jobKind.id(2), specN("y"), time.Now())
	if err := s.Enqueue(first); err != nil {
		t.Fatal(err)
	}
	<-started // first occupies the only worker
	if err := s.Enqueue(second); err != nil {
		t.Fatal(err)
	}

	if wasQueued := s.Cancel(second); !wasQueued {
		t.Fatal("Cancel of a queued job should report wasQueued")
	}
	second.finish(StateCanceled, "canceled while queued") // the caller settles it
	waitSettled(t, second)
	if st := second.State(); st != StateCanceled {
		t.Fatalf("queued job canceled into %s", st)
	}

	s.Drain() // interrupts first; second must not reach the worker
	waitSettled(t, first)
	if st := first.State(); st != StateInterrupted {
		t.Errorf("running job drained into %s", st)
	}
	select {
	case j := <-started:
		t.Errorf("canceled job %s still ran", j.ID)
	default:
	}
}

// TestSchedulerCancelRunning: canceling a running job cancels its
// context and it settles as canceled, freeing the worker.
func TestSchedulerCancelRunning(t *testing.T) {
	started := make(chan *Job, 2)
	s := NewScheduler(1, blockingExec(started))
	defer s.Drain()

	first := newJob(jobKind.id(1), specN("x"), time.Now())
	second := newJob(jobKind.id(2), specN("y"), time.Now())
	for _, j := range []*Job{first, second} {
		if err := s.Enqueue(j); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	if wasQueued := s.Cancel(first); wasQueued {
		t.Fatal("Cancel of a running job should not report wasQueued")
	}
	waitSettled(t, first)
	if st := first.State(); st != StateCanceled {
		t.Fatalf("running job canceled into %s", st)
	}
	// The worker must move on to the next job.
	select {
	case j := <-started:
		if j != second {
			t.Fatalf("worker picked up %s, want %s", j.ID, second.ID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never freed after cancellation")
	}
}

// TestSchedulerDrainKeepsQueue: Drain interrupts running jobs but leaves
// queued jobs queued (they belong to the next daemon start), and refuses
// new submissions.
func TestSchedulerDrainKeepsQueue(t *testing.T) {
	started := make(chan *Job, 1)
	s := NewScheduler(1, blockingExec(started))

	running := newJob(jobKind.id(1), specN("x"), time.Now())
	queued := newJob(jobKind.id(2), specN("y"), time.Now())
	for _, j := range []*Job{running, queued} {
		if err := s.Enqueue(j); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	s.Drain()
	waitSettled(t, running)
	if st := running.State(); st != StateInterrupted {
		t.Errorf("running job drained into %s", st)
	}
	if st := queued.State(); st != StateQueued {
		t.Errorf("queued job drained into %s, want queued", st)
	}
	if err := s.Enqueue(newJob(jobKind.id(3), specN("z"), time.Now())); err == nil {
		t.Error("Enqueue accepted a job after Drain")
	}
}
