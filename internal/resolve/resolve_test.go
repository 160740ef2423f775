package resolve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pprl/internal/journal"
)

// verdictOf is the fake comparators' ground truth.
func verdictOf(i, j int) bool { return (i+2*j)%3 == 0 }

// batchCmp counts the pairs it is asked for and remembers the sizes of the
// batches they came in; it declares hint as its ChunkHint (0 = none).
type batchCmp struct {
	calls, hint int
	batches     []int
}

func (c *batchCmp) ChunkHint() int { return c.hint }

func (c *batchCmp) CompareBatch(pairs [][2]int) ([]bool, error) {
	c.batches = append(c.batches, len(pairs))
	c.calls += len(pairs)
	out := make([]bool, len(pairs))
	for x, p := range pairs {
		out[x] = verdictOf(p[0], p[1])
	}
	return out, nil
}

// pairEvent is one pair of a delivered span: the tests compare the
// flattened stream, so a trace reads the same at any span grain.
type pairEvent struct {
	Kind    Kind
	Matched bool
	Group   int
	I, J    int
}

// flatten appends ev's pairs to trace.
func flatten(trace []pairEvent, ev Event) []pairEvent {
	for x := range ev.Js {
		i, j := ev.Pair(x)
		trace = append(trace, pairEvent{Kind: ev.Kind, Matched: ev.Verdicts[x], Group: ev.Group, I: i, J: j})
	}
	return trace
}

// memJournal records what the kernel journals, in order.
type memJournal struct {
	entries []pairEvent
	syncs   int
	onEntry func(n int)
}

func (m *memJournal) add(k Kind, i, j int, matched bool) error {
	m.entries = append(m.entries, pairEvent{Kind: k, I: i, J: j, Matched: matched})
	if m.onEntry != nil {
		m.onEntry(len(m.entries))
	}
	return nil
}
func (m *memJournal) Begin(journal.Manifest) ([]journal.Verdict, error) { return nil, nil }
func (m *memJournal) Record(i, j int, matched bool) error               { return m.add(Purchased, i, j, matched) }
func (m *memJournal) RecordTier(i, j int, matched bool) error           { return m.add(Tiered, i, j, matched) }
func (m *memJournal) Sync() error                                       { m.syncs++; return nil }

// scenario is one kernel input, minus the parts every run re-creates.
type scenario struct {
	groups    []Group
	budget    int64
	journaled []journal.Verdict
	tier      map[[2]int]bool // nil = tier off; true = confidently NonMatch, missing pairs are uncertain
	residual  bool
	hint      int // the comparator's ChunkHint (0 = default)
}

// outcome is everything observable about one run.
type outcome struct {
	trace     []pairEvent // Sink and Residual events in delivery order, flattened
	spans     []Event     // the same events as delivered, Js and Verdicts copied
	journal   *memJournal
	uncertain int64
	calls     int
	batches   []int
	err       error
}

func (out *outcome) sink(ev Event) {
	out.trace = flatten(out.trace, ev)
	ev.Js, ev.Verdicts = slices.Clone(ev.Js), slices.Clone(ev.Verdicts)
	out.spans = append(out.spans, ev)
}

func (sc scenario) input(cmp *batchCmp, out *outcome) Input {
	in := Input{
		Groups:     len(sc.groups),
		Group:      func(k int) Group { return sc.groups[k] },
		Budget:     sc.budget,
		Journaled:  sc.journaled,
		Comparator: cmp,
		Journal:    out.journal,
		Sink:       out.sink,
	}
	if sc.tier != nil {
		in.Tier = func(i, j int) bool { return sc.tier[[2]int{i, j}] }
	}
	if sc.residual {
		in.Residual = out.sink
	}
	return in
}

// runScenario runs the scenario once; tweak may adjust the input first.
func runScenario(t *testing.T, sc scenario, tweak func(*Input, *outcome)) *outcome {
	t.Helper()
	out := &outcome{journal: &memJournal{}}
	cmp := &batchCmp{hint: sc.hint}
	in := sc.input(cmp, out)
	if tweak != nil {
		tweak(&in, out)
	}
	out.uncertain, out.err = Run(in)
	out.calls, out.batches = cmp.calls, cmp.batches
	return out
}

func ev(k Kind, group, i, j int, matched bool) pairEvent {
	return pairEvent{Kind: k, Group: group, I: i, J: j, Matched: matched}
}

func journaledPairs(ps ...[3]int) []journal.Verdict {
	var out []journal.Verdict
	for _, p := range ps {
		out = append(out, journal.Verdict{I: uint32(p[0]), J: uint32(p[1]), Matched: p[2] == 1})
	}
	return out
}

// TestRunTraces pins the exact event stream of small scenarios.
func TestRunTraces(t *testing.T) {
	cross := func(a, b []int) Group { return Group{A: a, B: b} }
	cases := []struct {
		name string
		sc   scenario
		want []pairEvent
		// calls is the comparator invocations, uncertain what Run returns.
		calls, uncertain int
		batches          []int
	}{
		{
			// Journaled beats a contradicting tier label; tier beats the
			// budget; the first unaffordable pair and everything after it
			// are residual.
			name: "precedence",
			sc: scenario{
				groups:    []Group{cross([]int{0, 1}, []int{0, 1, 2})},
				budget:    3,
				journaled: journaledPairs([3]int{0, 1, 1}),
				tier:      map[[2]int]bool{{0, 1}: true, {0, 2}: true, {1, 0}: true},
				residual:  true,
			},
			want: []pairEvent{
				ev(Purchased, 0, 0, 0, verdictOf(0, 0)),
				ev(Replayed, 0, 0, 1, true),
				ev(Tiered, 0, 0, 2, false),
				ev(Tiered, 0, 1, 0, false),
				ev(Purchased, 0, 1, 1, verdictOf(1, 1)),
				ev(Residual, 0, 1, 2, false),
			},
			calls: 2, uncertain: 3, batches: []int{2},
		},
		{
			// Both journaled purchases are charged before the walk, so one
			// unit is left. (0,1) is met in-line; the walk stops at (0,2)
			// and never reaches (1,1), which follows it.
			name: "journaled met and unmet",
			sc: scenario{
				groups:    []Group{cross([]int{0}, []int{0, 1, 2}), cross([]int{1}, []int{0, 1})},
				budget:    3,
				journaled: journaledPairs([3]int{1, 1, 0}, [3]int{0, 1, 1}),
			},
			want: []pairEvent{
				ev(Purchased, 0, 0, 0, verdictOf(0, 0)),
				ev(Replayed, 0, 0, 1, true),
				ev(Replayed, -1, 1, 1, false),
			},
			calls: 1, batches: []int{1},
		},
		{
			// Chunks of two: the tier label and the replay between pending
			// purchases wait for the verdicts ahead of them, and the stream
			// still comes out in walk order.
			name: "order across chunks",
			sc: scenario{
				groups: []Group{
					cross([]int{0}, []int{0, 1, 2, 3}),
					{Pairs: [][2]int32{{5, 0}, {5, 1}, {5, 2}}},
				},
				budget:    100,
				journaled: journaledPairs([3]int{5, 0, 1}),
				tier:      map[[2]int]bool{{0, 1}: true, {5, 1}: true},
				hint:      2,
			},
			want: []pairEvent{
				ev(Purchased, 0, 0, 0, verdictOf(0, 0)),
				ev(Tiered, 0, 0, 1, false),
				ev(Purchased, 0, 0, 2, verdictOf(0, 2)),
				ev(Purchased, 0, 0, 3, verdictOf(0, 3)),
				ev(Replayed, 1, 5, 0, true),
				ev(Tiered, 1, 5, 1, false),
				ev(Purchased, 1, 5, 2, verdictOf(5, 2)),
			},
			calls: 4, uncertain: 4, batches: []int{2, 2},
		},
		{
			// A column-major group walks each record of B against all of A,
			// on the per-pair path too: the replay, the tier label and the
			// residual come out in column order.
			name: "column-major",
			sc: scenario{
				groups:    []Group{{A: []int{0, 1, 2}, B: []int{4, 5}, Columns: true}},
				budget:    4,
				journaled: journaledPairs([3]int{2, 4, 1}),
				tier:      map[[2]int]bool{{1, 5}: true},
				residual:  true,
			},
			want: []pairEvent{
				ev(Purchased, 0, 0, 4, verdictOf(0, 4)),
				ev(Purchased, 0, 1, 4, verdictOf(1, 4)),
				ev(Replayed, 0, 2, 4, true),
				ev(Purchased, 0, 0, 5, verdictOf(0, 5)),
				ev(Tiered, 0, 1, 5, false),
				ev(Residual, 0, 2, 5, false),
			},
			calls: 3, uncertain: 4, batches: []int{3},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := runScenario(t, c.sc, nil)
			if got.err != nil {
				t.Fatal(got.err)
			}
			if !reflect.DeepEqual(got.trace, c.want) {
				t.Errorf("trace\n got %v\nwant %v", got.trace, c.want)
			}
			if got.calls != c.calls || got.uncertain != int64(c.uncertain) {
				t.Errorf("calls %d uncertain %d, want %d and %d", got.calls, got.uncertain, c.calls, c.uncertain)
			}
			if !reflect.DeepEqual(got.batches, c.batches) {
				t.Errorf("batch sizes %v, want %v", got.batches, c.batches)
			}
			// Journal-after-verdict: the journal is the Purchased and
			// Tiered events, in delivery order, synced once at the end.
			var want []pairEvent
			for _, e := range got.trace {
				if e.Kind == Purchased || e.Kind == Tiered {
					want = append(want, pairEvent{Kind: e.Kind, I: e.I, J: e.J, Matched: e.Matched})
				}
			}
			if !reflect.DeepEqual(got.journal.entries, want) || got.journal.syncs != 1 {
				t.Errorf("journal %v (%d syncs), want %v (1 sync)", got.journal.entries, got.journal.syncs, want)
			}
		})
	}
}

// TestColumnSpans: where precedence is uniform a column-major group is
// admitted a column at a time — record j of B fixed, a stretch of A the
// span — cut at the budget like a row, and the comparator and the journal
// see its pairs in walk order.
func TestColumnSpans(t *testing.T) {
	sc := scenario{groups: []Group{{A: []int{0, 1, 2}, B: []int{4, 5}, Columns: true}}, budget: 5}
	got := runScenario(t, sc, nil)
	if got.err != nil {
		t.Fatal(got.err)
	}
	var spans []string
	for _, e := range got.spans {
		spans = append(spans, fmt.Sprintf("%v %d %v", e.Column, e.I, e.Js))
	}
	if want := []string{"true 4 [0 1 2]", "true 5 [0 1]"}; !slices.Equal(spans, want) {
		t.Errorf("spans %q, want %q", spans, want)
	}
	want := []pairEvent{
		ev(Purchased, 0, 0, 4, verdictOf(0, 4)), ev(Purchased, 0, 1, 4, verdictOf(1, 4)), ev(Purchased, 0, 2, 4, verdictOf(2, 4)),
		ev(Purchased, 0, 0, 5, verdictOf(0, 5)), ev(Purchased, 0, 1, 5, verdictOf(1, 5)),
	}
	if !reflect.DeepEqual(got.trace, want) {
		t.Errorf("trace\n got %v\nwant %v", got.trace, want)
	}
	for x, e := range got.journal.entries {
		if e.I != want[x].I || e.J != want[x].J || e.Matched != want[x].Matched {
			t.Fatalf("journal entry %d is %v, want %v", x, e, want[x])
		}
	}
	if len(got.journal.entries) != len(want) || got.calls != 5 {
		t.Errorf("journaled %d and bought %d pairs, want %d", len(got.journal.entries), got.calls, len(want))
	}
}

// TestEarlyStop: with neither a tier nor a residual sink the walk ends at
// the first unaffordable pair; either of them keeps it going to the end.
// Without the tier the four purchases arrive as two spans (a row of three,
// then the one pair the budget still covers).
func TestEarlyStop(t *testing.T) {
	var groups []Group
	for k := 0; k < 5; k++ {
		groups = append(groups, Group{A: []int{k}, B: []int{0, 1, 2}})
	}
	for _, c := range []struct {
		name           string
		tier, residual bool
		wantGroups     int
		wantPairs      int
		wantEvents     int
	}{
		{"plain", false, false, 2, 4, 2},
		{"tier on", true, false, 5, 4, 4},
		{"residual wanted", false, true, 5, 15, 13},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc := scenario{groups: groups, budget: 4, residual: c.residual}
			if c.tier {
				sc.tier = map[[2]int]bool{}
			}
			asked := 0
			got := runScenario(t, sc, func(in *Input, _ *outcome) {
				asked = 0
				group := in.Group
				in.Group = func(k int) Group { asked++; return group(k) }
			})
			if got.err != nil {
				t.Fatal(got.err)
			}
			if asked != c.wantGroups || len(got.trace) != c.wantPairs || len(got.spans) != c.wantEvents || got.calls != 4 {
				t.Errorf("walked %d groups, %d pairs in %d events, %d purchases; want %d, %d in %d, 4",
					asked, len(got.trace), len(got.spans), got.calls, c.wantGroups, c.wantPairs, c.wantEvents)
			}
		})
	}
}

// TestInterruptAtChunkBoundary cancels the context from inside the
// journal: the chunk in flight is delivered whole, the journal holds
// exactly what the sink saw, it is synced, and the error is
// ErrInterrupted.
func TestInterruptAtChunkBoundary(t *testing.T) {
	sc := scenario{
		groups: []Group{{A: []int{0, 1, 2}, B: []int{0, 1, 2, 3}}},
		budget: 100,
		tier:   map[[2]int]bool{{0, 2}: true},
		hint:   4,
	}
	full := runScenario(t, sc, nil)
	if full.err != nil {
		t.Fatal(full.err)
	}
	got := runScenario(t, sc, func(in *Input, out *outcome) {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		in.Context = ctx
		out.journal.onEntry = func(n int) {
			if n == 2 {
				cancel()
			}
		}
	})
	if !errors.Is(got.err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", got.err)
	}
	// The first chunk is four purchases with the tier label among them.
	if len(got.trace) != 5 || !reflect.DeepEqual(got.trace, full.trace[:5]) {
		t.Errorf("interrupted trace %v is not the 5-event prefix of %v", got.trace, full.trace)
	}
	if len(got.journal.entries) != len(got.trace) || got.journal.syncs != 1 {
		t.Errorf("journal holds %d entries (%d syncs) for %d delivered events", len(got.journal.entries), got.journal.syncs, len(got.trace))
	}

	// A context cancelled before the walk buys nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pre := runScenario(t, sc, func(in *Input, _ *outcome) { in.Context = ctx })
	if !errors.Is(pre.err, ErrInterrupted) || len(pre.trace) != 0 || pre.calls != 0 {
		t.Errorf("pre-cancelled run: err %v, %d events, %d purchases", pre.err, len(pre.trace), pre.calls)
	}
}

// TestProgressCadence: one event before the walk, one per stride counting
// journaled purchases as done, one at the end — and under spans exactly the
// same: every mid-run call lands on a multiple of the stride and none is
// skipped, whatever the budget, the chunk and the row width.
func TestProgressCadence(t *testing.T) {
	row := func(n int) []int {
		b := make([]int, n)
		for j := range b {
			b[j] = j
		}
		return b
	}
	run := func(sc scenario) (seen [][2]int64) {
		t.Helper()
		got := runScenario(t, sc, func(in *Input, _ *outcome) {
			seen = nil
			in.Progress = func(done, total int64) { seen = append(seen, [2]int64{done, total}) }
		})
		if got.err != nil {
			t.Fatal(got.err)
		}
		return seen
	}

	n := progressStride + 10
	seen := run(scenario{
		groups:    []Group{{A: []int{0}, B: row(n)}},
		budget:    int64(n),
		journaled: journaledPairs([3]int{0, 3, 1}, [3]int{0, 4, 0}),
	})
	want := [][2]int64{{2, int64(n)}, {progressStride, int64(n)}, {int64(n), int64(n)}}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("progress events %v, want %v", seen, want)
	}

	for _, c := range []struct {
		budget      int64
		hint, width int
	}{
		{3*progressStride + 123, 0, 37}, {2*progressStride + 1, 1000, 5000}, {3 * progressStride, 4097, 33},
		{2*progressStride - 1, 5000, 4096}, {4*progressStride + 7, 16384, 20000}, {progressStride + 5, 3, 2},
	} {
		// More pairs than the budget, so the budget is what ends the run.
		rows := int(c.budget)/c.width + 2
		seen := run(scenario{groups: []Group{{A: row(rows), B: row(c.width)}}, budget: c.budget, hint: c.hint})
		want := [][2]int64{{0, c.budget}}
		for done := int64(progressStride); done <= c.budget; done += progressStride {
			want = append(want, [2]int64{done, c.budget})
		}
		if want = append(want, [2]int64{c.budget, c.budget}); !reflect.DeepEqual(seen, want) {
			t.Errorf("budget %d hint %d width %d: progress events %v, want %v", c.budget, c.hint, c.width, seen, want)
		}
	}
}

// TestDefaultChunk pins the chunk rule: 256 per worker capped at 4096, a
// ChunkHint overriding it up to 16384.
func TestDefaultChunk(t *testing.T) {
	b := make([]int, 40000)
	for j := range b {
		b[j] = j
	}
	for _, c := range []struct{ workers, hint, want int }{
		{0, 0, 256}, {1, 0, 256}, {2, 0, 512}, {64, 0, 4096}, {2, 32, 32}, {1, 1 << 20, 16384},
	} {
		cmp := &batchCmp{hint: c.hint}
		_, err := Run(Input{
			Groups: 1, Group: func(int) Group { return Group{A: []int{0}, B: b} },
			Budget: int64(len(b)), Comparator: cmp, Workers: c.workers, Sink: func(Event) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		if cmp.batches[0] != c.want {
			t.Errorf("workers=%d hint=%d: first batch %d, want %d", c.workers, c.hint, cmp.batches[0], c.want)
		}
	}
}

// TestComparatorErrors: a failing comparator and a short batch reply both
// stop the run.
func TestComparatorErrors(t *testing.T) {
	in := Input{
		Groups: 1, Group: func(int) Group { return Group{A: []int{0}, B: []int{0, 1}} },
		Budget: 5, Sink: func(Event) {},
	}
	in.Comparator = failingCmp{}
	if _, err := Run(in); err == nil {
		t.Error("comparator error was swallowed")
	}
	in.Comparator = shortBatch{}
	if _, err := Run(in); err == nil {
		t.Error("short batch reply was accepted")
	}
}

type failingCmp struct{}

func (failingCmp) CompareBatch([][2]int) ([]bool, error) { return nil, fmt.Errorf("boom") }

type shortBatch struct{}

func (shortBatch) CompareBatch(pairs [][2]int) ([]bool, error) {
	return make([]bool, len(pairs)-1), nil
}
