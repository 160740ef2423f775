package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pprl/internal/core"
)

// Job is one submitted linkage run moving through the service: queued,
// scheduled onto a worker, journaled while running, and settled into a
// terminal (or resumable) state.
type Job struct {
	ID          string
	Spec        JobSpec
	SubmittedAt time.Time

	// Progress is fed by the core pipeline's progress hook; its notifier
	// also wakes watchers when the job settles.
	Progress *tracker

	mu           sync.Mutex
	state        State
	errMsg       string
	resumed      int
	cancel       context.CancelFunc
	userCanceled bool
	// result is the run's record once this process completed it.
	result atomic.Pointer[core.ResultJSON]
}

func newJob(id string, spec JobSpec, submitted time.Time) *Job {
	return &Job{
		ID:          id,
		Spec:        spec,
		SubmittedAt: submitted,
		Progress:    new(tracker),
		state:       StateQueued,
	}
}

// State returns the job's current lifecycle position.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Status renders the wire form.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	st := JobStatus{
		ID:          j.ID,
		State:       j.state,
		Error:       j.errMsg,
		SubmittedAt: j.SubmittedAt,
		Resumed:     j.resumed,
	}
	j.mu.Unlock()
	st.Progress = j.Progress.Snapshot()
	return st
}

// UserCanceled reports whether a DELETE requested this job's end (which
// distinguishes a cancellation from a daemon-drain checkpoint when the
// engine returns ErrInterrupted).
func (j *Job) UserCanceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.userCanceled
}

// begin atomically moves a popped queue entry to running; it fails when
// the job was canceled while queued.
func (j *Job) begin(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.cancel = cancel
	return true
}

// finish records the post-execution state and wakes Progress watchers. An interrupted job is re-queued only by recovery in
// a later process, as a new Job.
func (j *Job) finish(state State, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.cancel = nil
	j.mu.Unlock()
	j.Progress.Notify()
}

// markRecovered resets a non-terminal job found on disk back to queued,
// counting the resumption.
func (j *Job) markRecovered() {
	j.mu.Lock()
	j.state = StateQueued
	j.resumed++
	j.mu.Unlock()
}

// Scheduler runs jobs on a bounded worker pool in strict FIFO submit
// order: at most `workers` jobs execute concurrently, the rest wait in
// the queue. Each running job gets its own cancellable context, so a
// DELETE or a daemon drain stops exactly one run at its next SMC chunk
// boundary.
type Scheduler struct {
	exec    func(ctx context.Context, j *Job)
	workers int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*Job
	running map[*Job]struct{}
	stopped bool
	wg      sync.WaitGroup
}

// NewScheduler starts a pool of `workers` goroutines executing jobs via
// exec. exec owns the job's state transitions after begin.
func NewScheduler(workers int, exec func(ctx context.Context, j *Job)) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	s := &Scheduler{exec: exec, workers: workers, running: make(map[*Job]struct{})}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.loop()
	}
	return s
}

// Workers returns the concurrency bound.
func (s *Scheduler) Workers() int { return s.workers }

// Enqueue appends the job to the FIFO queue.
func (s *Scheduler) Enqueue(j *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return fmt.Errorf("service: scheduler is draining; not accepting jobs")
	}
	s.queue = append(s.queue, j)
	s.cond.Signal()
	return nil
}

// Cancel ends the job: a queued job leaves the queue — no worker will
// run it — and reports wasQueued = true, so the caller settles it and
// persists the terminal state; a running job has its context cancelled
// (the executor settles it) and reports wasQueued = false. Settled jobs
// are left alone.
func (s *Scheduler) Cancel(j *Job) (wasQueued bool) {
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.userCanceled = true
		j.mu.Unlock()
		return true
	case StateRunning:
		j.userCanceled = true
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return false
	default:
		j.mu.Unlock()
		return false
	}
}

// Counts reports how many jobs are queued (and still runnable) and how
// many are executing right now.
func (s *Scheduler) Counts() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.queue {
		if j.State() == StateQueued {
			queued++
		}
	}
	return queued, len(s.running)
}

// Drain stops the pool for daemon shutdown: no new jobs start, every
// running job's context is cancelled — the engine checkpoints its
// journal at the next chunk boundary — and Drain returns once all
// workers have exited. Queued jobs stay queued on disk; the next daemon
// start recovers them.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	s.stopped = true
	for j := range s.running {
		j.mu.Lock()
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// loop is one worker: pop the FIFO head, run it, repeat.
func (s *Scheduler) loop() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		if !j.begin(cancel) {
			cancel() // canceled while queued; nothing to run
			continue
		}
		s.mu.Lock()
		s.running[j] = struct{}{}
		stopping := s.stopped
		s.mu.Unlock()
		if stopping {
			// Drain raced with the pop: checkpoint immediately rather
			// than starting a run the daemon is about to abandon.
			cancel()
		}
		s.exec(ctx, j)
		cancel()
		s.mu.Lock()
		delete(s.running, j)
		s.mu.Unlock()
	}
}

// next blocks until a queued job or a drain arrives.
func (s *Scheduler) next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		// Stop before popping: a job still in the queue at drain time
		// belongs to the next daemon start, not this one.
		if s.stopped {
			return nil
		}
		for len(s.queue) > 0 {
			j := s.queue[0]
			s.queue = s.queue[1:]
			if j.State() == StateQueued {
				return j
			}
		}
		if s.stopped {
			return nil
		}
		s.cond.Wait()
	}
}
