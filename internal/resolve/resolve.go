// Package resolve is the budgeted-resolution kernel: the paper's Section
// V loop — walk the heuristic-ordered Unknown pairs, buy exact SMC
// verdicts until the allowance is gone, label the residue — implemented
// once. It owns the resolution policy (DESIGN.md §16): per-pair
// precedence, one unit per purchase against one budget, chunked
// purchase through the comparator's batch path, journal-after-verdict,
// the interrupt checkpoint, the completion sync and the progress cadence.
// It knows nothing about where pairs come from or where labels go:
// core.Link, session.RunQuery, incremental.Engine.Append and the strings
// arm's experiment.StringLink hand it groups and receive events.
package resolve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"pprl/internal/journal"
	"pprl/internal/metrics"
)

// ErrInterrupted is returned (wrapped) by Run when Input.Context is
// cancelled mid-run: the chunk in flight is drained, the journal synced so
// every delivered verdict is durable, and the walk stops. A journaled run
// interrupted this way is resumable. core.ErrInterrupted and
// session.ErrInterrupted are this value.
var ErrInterrupted = errors.New("run interrupted")

// Group is one Unknown group pair: a deterministic walk over its pairs —
// A × B in row-major order (column-major when Columns is set: each record
// of B against all of A), or Pairs as listed when that is set (int32
// halves the candidate lists the incremental engine materializes). Under
// DP blocking the indexes are handles of the padded releases, dummies
// among them: a dummy is walked, and paid for, like any other pair.
type Group struct {
	A, B    []int
	Pairs   [][2]int32
	Columns bool
}

// Kind says how a walked pair was resolved.
type Kind uint8

const (
	Replayed  Kind = iota // a purchase the journal already holds: exact, never re-bought
	Tiered                // a free, heuristic NonMatch from the tier hook
	Purchased             // a live comparator verdict
	Residual              // a pair the budget could not afford
)

// Event is the resolution of a span: one record against Js, a contiguous
// stretch of the other side of its group. A row span is record I of the
// group's A against a stretch of its B; a column span (Column set, met only
// in a Columns group) is record I of B against a stretch of A. Verdicts[x]
// answers Pair(x) (false for Tiered, meaningless for Residual). Only live
// purchases under uniform precedence travel as longer spans (DESIGN.md
// §22); every other pair is the row span of one. Group indexes the group
// whose walk met the span (-1 for a journaled purchase the walk never
// met). Js and Verdicts belong to the kernel and are only valid during the
// call that delivers them. Column sits beside Kind so that an Event, passed
// by value once a span, stays 72 bytes.
type Event struct {
	Kind     Kind
	Column   bool
	Group    int
	I        int
	Js       []int
	Verdicts []bool
}

// Pair is the span's x-th pair as (record of A, record of B).
func (ev *Event) Pair(x int) (i, j int) {
	if ev.Column {
		return ev.Js[x], ev.I
	}
	return ev.I, ev.Js[x]
}

// queued is an event waiting in the delivery queue, in 32 bytes however
// long the span: a span's record is i (of B for a column span), its
// stretch sits in run.spans, in queue order, and its verdicts arrive with
// the chunk.
type queued struct {
	kind         Kind
	matched      bool
	span, column bool
	group        int
	i, j         int
}

// Input is one budgeted resolution.
type Input struct {
	// Group(k) for k in [0, Groups) is the group sequence, in the order
	// the budget is to be spent.
	Groups int
	Group  func(k int) Group
	// Budget is the allowance in comparisons, journaled purchases
	// included: Journaled — the purchases of an interrupted run — are
	// charged one unit each before the walk starts, so however the walk
	// differs from the one that bought them (the tier knobs are outside
	// the journal manifest) live purchases never overdraw the budget.
	Budget    int64
	Journaled []journal.Verdict
	// Tier, when set, reports the pairs it is confident do not match: they
	// are labeled NonMatch for free, every other pair goes on to the
	// budget. A filter may discard, it may not assert — there is no free
	// Match.
	Tier func(i, j int) bool
	// Comparator buys verdicts, one pair list in walk order per chunk —
	// the batch method of smc.Comparator, so a secure engine is handed its
	// runs whole. Chunks are its ChunkHint when it has one; Workers scales
	// them otherwise.
	Comparator interface {
		CompareBatch(pairs [][2]int) ([]bool, error)
	}
	Workers int
	// Latency, when set, sees the duration of every CompareBatch call.
	Latency *metrics.Histogram
	// Journal, when set, records every Purchased and Tiered event before
	// the sink sees it and is synced at an interrupt and at completion.
	// The caller has already declared the run to it (Begin).
	Journal journal.Sink
	// Context, when set, is polled before the walk and after every chunk.
	Context context.Context
	// Progress, when set, sees purchases done (journaled + live) against
	// Budget: before the walk, every progressStride, and at the end.
	Progress func(done, total int64)
	// Sink receives every Replayed, Tiered and Purchased pair exactly
	// once, in walk order, one event per span: an event behind a purchase
	// still in flight waits for that verdict. Journaled purchases the walk
	// never met follow the walk, in journal order.
	Sink func(Event)
	// Residual, when set, receives the walked pairs the budget could not
	// afford, in the same ordered stream. The walk ends at the first
	// unaffordable pair unless Tier or Residual is set — only they have
	// anything left to do there.
	Residual func(Event)
}

// progressStride is how many purchases apart Progress events are.
const progressStride = 4096

// maxQueuedChunks bounds the delivery queue, in chunks: tier labels and
// replays between two sparse purchases wait in it, so a long free stretch
// flushes a partial chunk rather than grow without limit.
const maxQueuedChunks = 64

// run is the state of one Run.
type run struct {
	in    Input
	chunk int

	budget    int64
	done      int64
	exhausted bool
	journaled map[[2]uint32]bool
	group     int

	// queue holds the events since the oldest unflushed purchase, in walk
	// order; pending counts the purchases among them, spans the columns of
	// the row spans among them.
	queue   []queued
	spans   [][]int
	pending int
	pairs   [][2]int
	// oneJ and oneV back the Js and Verdicts of a span of one.
	oneJ [1]int
	oneV [1]bool

	uncertain int64
	err       error
}

// Run walks the groups and resolves every pair it meets by precedence:
// journaled purchase, tier label, live purchase, residual. It returns how
// many walked pairs the tier hook passed on as uncertain.
func Run(in Input) (uncertain int64, err error) {
	r := &run{in: in, budget: in.Budget}
	// The chunk grows with the worker count so a sharded comparator always
	// has enough pairs to keep every lane's pipeline full. A comparator
	// that knows its own ideal batch size — a distributed pool whose
	// capacity is fleet width, not Workers — overrides the heuristic;
	// clamped so a bad hint can neither stall the pipeline nor
	// materialize the budget.
	r.chunk = min(256*max(in.Workers, 1), 4096)
	if hinter, ok := in.Comparator.(interface{ ChunkHint() int }); ok {
		if h := hinter.ChunkHint(); h > 0 {
			r.chunk = min(h, 16384)
		}
	}
	if len(in.Journaled) > 0 {
		r.journaled = make(map[[2]uint32]bool, len(in.Journaled))
		for _, v := range in.Journaled {
			r.journaled[[2]uint32{v.I, v.J}] = v.Matched
		}
		r.done = int64(len(r.journaled))
		r.budget -= r.done
	}

	if err := r.interrupted(); err != nil {
		return 0, err
	}
	// Announce the phase before the first stride so pollers see it start.
	r.progress()
	r.walk()
	ok := r.err == nil && r.flush()
	// Journaled purchases the walk never met — it stopped early, or the
	// interrupted run walked a different order — are exact all the same.
	for _, v := range in.Journaled {
		key := [2]uint32{v.I, v.J}
		if matched, unmet := r.journaled[key]; ok && unmet {
			delete(r.journaled, key)
			ok = r.emit(queued{kind: Replayed, matched: matched, group: -1, i: int(v.I), j: int(v.J)})
		}
	}
	if !ok {
		return 0, r.err
	}
	if in.Journal != nil {
		// Completion checkpoint: everything after the purchases is derived
		// state, so a durable journal here makes the run reconstructible.
		if err := in.Journal.Sync(); err != nil {
			return 0, err
		}
	}
	r.progress()
	return r.uncertain, nil
}

func (r *run) progress() {
	if r.in.Progress != nil {
		r.in.Progress(r.done, r.in.Budget)
	}
}

// interrupted checkpoints the run: every verdict delivered so far is
// already journaled (delivery trails the comparator), so a sync makes the
// prefix durable and the run resumable.
func (r *run) interrupted() error {
	if r.in.Context == nil || r.in.Context.Err() == nil {
		return nil
	}
	if r.in.Journal != nil {
		if err := r.in.Journal.Sync(); err != nil {
			return err
		}
	}
	return fmt.Errorf("%w after %d of %d budgeted comparisons: %v",
		ErrInterrupted, r.done, r.in.Budget, r.in.Context.Err())
}

func (r *run) walk() {
	for k := 0; k < r.in.Groups; k++ {
		g := r.in.Group(k)
		r.group = k
		if g.Pairs != nil {
			for _, p := range g.Pairs {
				if !r.visit(int(p[0]), int(p[1])) {
					return
				}
			}
			continue
		}
		// Where precedence is uniform — nothing journaled, no tier — a row's
		// (a column's) pairs are admitted a span at a time.
		uniform := r.journaled == nil && r.in.Tier == nil
		outer, inner := g.A, g.B
		if g.Columns {
			outer, inner = g.B, g.A
		}
		for _, k := range outer {
			for x := 0; x < len(inner); {
				if uniform && !r.exhausted && r.budget > 0 {
					n, ok := r.admit(k, inner[x:], g.Columns)
					if !ok {
						return
					}
					x += n
					continue
				}
				i, j := k, inner[x]
				if g.Columns {
					i, j = j, i
				}
				if !r.visit(i, j) {
					return
				}
				x++
			}
		}
	}
}

// admit queues the purchase of record k against the longest stretch of
// others that the budget, the chunk and the progress stride all have room
// for, so a span never crosses a boundary where the run checkpoints or
// reports. k is of A and others of B, or the reverse for a column span.
func (r *run) admit(k int, others []int, column bool) (int, bool) {
	n := min(len(others), r.chunk-r.pending, progressStride-int((r.done+int64(r.pending))%progressStride))
	if int64(n) > r.budget {
		n = int(r.budget)
	}
	r.budget -= int64(n)
	r.queue = append(r.queue, queued{kind: Purchased, span: true, column: column, group: r.group, i: k})
	r.spans = append(r.spans, others[:n])
	if r.pending += n; r.pending == r.chunk {
		return n, r.checkpoint()
	}
	return n, true
}

// visit resolves one walked pair; false ends the walk.
func (r *run) visit(i, j int) bool {
	if r.journaled != nil {
		key := [2]uint32{uint32(i), uint32(j)}
		if matched, ok := r.journaled[key]; ok {
			delete(r.journaled, key)
			// Its unit was charged before the walk.
			return r.emit(queued{kind: Replayed, matched: matched, group: r.group, i: i, j: j})
		}
	}
	if r.in.Tier != nil {
		if r.in.Tier(i, j) {
			return r.emit(queued{kind: Tiered, group: r.group, i: i, j: j})
		}
		r.uncertain++
	}
	if !r.exhausted {
		if r.budget > 0 {
			r.budget--
			r.queue = append(r.queue, queued{kind: Purchased, group: r.group, i: i, j: j})
			if r.pending++; r.pending == r.chunk {
				return r.checkpoint()
			}
			return true
		}
		// Once a pair is unaffordable everything after it is residual.
		r.exhausted = true
	}
	if r.in.Residual != nil {
		return r.emit(queued{kind: Residual, group: r.group, i: i, j: j})
	}
	return r.in.Tier != nil
}

// emit queues a non-purchase event behind the purchases still in flight, so
// the sink sees walk order; with none in flight it is delivered at once.
func (r *run) emit(q queued) bool {
	r.queue = append(r.queue, q)
	switch {
	case r.pending == 0:
		return r.drain(nil)
	case len(r.queue) >= maxQueuedChunks*r.chunk:
		return r.checkpoint()
	}
	return true
}

// checkpoint ends a chunk mid-walk: flush it, then poll the interrupt.
func (r *run) checkpoint() bool {
	if !r.flush() {
		return false
	}
	r.err = r.interrupted()
	return r.err == nil
}

// flush buys the queued purchases — one pair list in walk order — and
// delivers the queue in order. It reports whether the run may go on.
func (r *run) flush() bool {
	if r.pending == 0 {
		return true
	}
	r.pairs = slices.Grow(r.pairs[:0], r.pending)[:r.pending]
	span, next := 0, r.pairs
	for x := range r.queue {
		switch q := &r.queue[x]; {
		case q.span:
			if q.column {
				for c, i := range r.spans[span] {
					next[c] = [2]int{i, q.i}
				}
			} else {
				for c, j := range r.spans[span] {
					next[c] = [2]int{q.i, j}
				}
			}
			next, span = next[len(r.spans[span]):], span+1
		case q.kind == Purchased:
			next[0], next = [2]int{q.i, q.j}, next[1:]
		}
	}
	start := time.Now()
	verdicts, err := r.in.Comparator.CompareBatch(r.pairs)
	if r.in.Latency != nil {
		r.in.Latency.Observe(time.Since(start))
	}
	if err != nil {
		r.err = fmt.Errorf("SMC batch: %w", err)
		return false
	}
	if len(verdicts) != len(r.pairs) {
		r.err = fmt.Errorf("SMC batch: %d verdicts for %d pairs", len(verdicts), len(r.pairs))
		return false
	}
	return r.drain(verdicts)
}

// drain delivers the queue in order and empties it. verdicts answers the
// purchases among it, in order; a pair resolved alone is the span of one.
func (r *run) drain(verdicts []bool) bool {
	span := 0
	for x := range r.queue {
		q := &r.queue[x]
		ev := Event{Kind: q.kind, Group: q.group, I: q.i, Js: r.oneJ[:], Verdicts: r.oneV[:]}
		switch {
		case q.span:
			ev.Column, ev.Js, span = q.column, r.spans[span], span+1
			ev.Verdicts, verdicts = verdicts[:len(ev.Js)], verdicts[len(ev.Js):]
		case q.kind == Purchased:
			r.oneJ[0], r.oneV[0], verdicts = q.j, verdicts[0], verdicts[1:]
		default:
			r.oneJ[0], r.oneV[0] = q.j, q.matched
		}
		if !r.deliver(&ev) {
			return false
		}
	}
	r.queue, r.spans, r.pending = r.queue[:0], r.spans[:0], 0
	return true
}

// deliver journals an event pair by pair, then hands it to its sink.
func (r *run) deliver(ev *Event) bool {
	if ev.Kind == Residual {
		r.in.Residual(*ev)
		return true
	}
	if r.in.Journal != nil && ev.Kind != Replayed {
		for x, k := range ev.Js {
			i, j := ev.I, k
			if ev.Column {
				i, j = k, ev.I
			}
			var err error
			if ev.Kind == Tiered {
				err = r.in.Journal.RecordTier(i, j, ev.Verdicts[x])
			} else {
				err = r.in.Journal.Record(i, j, ev.Verdicts[x])
			}
			if err != nil {
				r.err = fmt.Errorf("journal append (%d,%d): %w", i, j, err)
				return false
			}
		}
	}
	if ev.Kind == Purchased {
		// A span ends at a stride boundary or before it, never beyond.
		if r.done += int64(len(ev.Js)); r.done%progressStride == 0 {
			r.progress()
		}
	}
	r.in.Sink(*ev)
	return true
}
