package service

import (
	"sync"

	"pprl/internal/metrics"
)

// notifier wakes watchers: Watch returns a channel the next Notify
// closes, so a watcher loops read, emit, wait. A Notify nobody watches
// costs a lock and nothing else.
type notifier struct {
	mu sync.Mutex
	ch chan struct{}
}

// Watch returns a channel closed at the next Notify.
func (n *notifier) Watch() <-chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ch == nil {
		n.ch = make(chan struct{})
	}
	return n.ch
}

// Notify wakes every watcher.
func (n *notifier) Notify() {
	n.mu.Lock()
	if n.ch != nil {
		close(n.ch)
		n.ch = nil
	}
	n.mu.Unlock()
}

// tracker is a job's stage clock, fed by the core pipeline's progress
// hook; its notifier wakes the job's event streams at every update and
// when the job settles. The pipeline calls Update synchronously on the
// linking goroutine (the hook contract says keep it fast), so Update is
// a clock read, a field copy and a wake-up — no I/O.
type tracker struct {
	notifier
	stages metrics.Stages
}

// Update implements the core.Config.Progress contract.
func (t *tracker) Update(stage string, done, total int64) {
	t.stages.Report(stage, done, total)
	t.Notify()
}

// Snapshot returns the latest position with the stage times so far, or
// nil before the first update.
func (t *tracker) Snapshot() *Progress {
	at, times := t.stages.Snapshot()
	if at.Stage == "" {
		return nil
	}
	return &Progress{Phase: at.Stage, Done: at.Done, Total: at.Total, Stages: times}
}
