package service

import "sync"

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

// tracker holds a job's latest progress snapshot; its notifier wakes the
// job's event streams at every update and when the job settles. The core
// pipeline calls Update synchronously on the linking goroutine (the hook
// contract says keep it fast), so Update is a field copy plus a wake-up —
// no I/O.
type tracker struct {
	notifier

	mu   sync.Mutex
	snap Progress
	any  bool
}

// Update implements the core.Config.Progress contract.
func (t *tracker) Update(stage string, done, total int64) {
	t.mu.Lock()
	t.snap = Progress{Phase: stage, Done: done, Total: total}
	if stage == "smc" {
		t.snap.PairsPurchased = done
		if rem := total - done; rem > 0 {
			t.snap.AllowanceRemaining = rem
		}
	}
	t.any = true
	t.mu.Unlock()
	t.Notify()
}

// Snapshot returns the latest position, or nil before the first update.
func (t *tracker) Snapshot() *Progress {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.any {
		return nil
	}
	snap := t.snap
	return &snap
}
