package resolve

import (
	"math/rand"
	"slices"
	"testing"

	"pprl/internal/journal"
)

// FuzzResolveBudget drives the kernel over random group shapes, budgets,
// tier labels and journaled sets (some of them pairs no walk meets) and
// checks what every adapter relies on: what was spent — the comparator's
// pairs plus the journaled units charged up front — is exactly the
// delivered purchases and never over the budget, every walked pair is
// delivered exactly once and in walk order, every journaled purchase is
// delivered exactly once — all on the flattened span stream — and that
// every span is one group's, one record's, a contiguous stretch of that
// group's B (of its A, in a column-major group), inside one chunk and one
// progress stride.
func FuzzResolveBudget(f *testing.F) {
	f.Add(int64(1), uint16(10), uint8(0))
	f.Add(int64(2), uint16(0), uint8(1))
	f.Add(int64(3), uint16(40), uint8(2))
	f.Add(int64(4), uint16(7), uint8(3))
	f.Add(int64(5), uint16(300), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, budget uint16, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		sc := scenario{budget: int64(budget), residual: flags&1 != 0, hint: rng.Intn(6)}
		if flags&2 != 0 {
			sc.tier = map[[2]int]bool{}
		}
		// Group k's pairs have first index in [8k, 8k+8), so every pair
		// belongs to exactly one group; walk lists them in walk order.
		var walk [][2]int
		for k, n := 0, rng.Intn(6); k < n; k++ {
			var g Group
			na, nb := 1+rng.Intn(3), 1+rng.Intn(4)
			g.Columns = rng.Intn(2) == 0
			var pairs [][2]int
			for a := 0; a < na; a++ {
				for b := 0; b < nb; b++ {
					pairs = append(pairs, [2]int{8*k + a, b})
				}
			}
			if g.Columns {
				pairs = pairs[:0]
				for b := 0; b < nb; b++ {
					for a := 0; a < na; a++ {
						pairs = append(pairs, [2]int{8*k + a, b})
					}
				}
			}
			if rng.Intn(2) == 0 {
				for a := 0; a < na; a++ {
					g.A = append(g.A, 8*k+a)
				}
				for b := 0; b < nb; b++ {
					g.B = append(g.B, b)
				}
			} else {
				rng.Shuffle(len(pairs), func(x, y int) { pairs[x], pairs[y] = pairs[y], pairs[x] })
				for _, p := range pairs {
					g.Pairs = append(g.Pairs, [2]int32{int32(p[0]), int32(p[1])})
				}
			}
			sc.groups = append(sc.groups, g)
			walk = append(walk, pairs...)
		}
		for _, p := range walk {
			if sc.tier != nil {
				sc.tier[p] = rng.Intn(3) != 0
			}
			if rng.Intn(4) == 0 && len(sc.journaled) < int(budget) {
				sc.journaled = append(sc.journaled, journal.Verdict{I: uint32(p[0]), J: uint32(p[1]), Matched: rng.Intn(2) == 0})
			}
		}
		if rng.Intn(3) == 0 && len(sc.journaled) < int(budget) {
			sc.journaled = append(sc.journaled, journal.Verdict{I: 999, J: 7, Matched: true})
		}
		rng.Shuffle(len(sc.journaled), func(x, y int) { sc.journaled[x], sc.journaled[y] = sc.journaled[y], sc.journaled[x] })

		got := runScenario(t, sc, nil)
		if got.err != nil {
			t.Fatal(got.err)
		}

		chunk, bought := sc.hint, 0
		if chunk == 0 {
			chunk = 256
		}
		for _, e := range got.spans {
			n := len(e.Js)
			if n == 0 || len(e.Verdicts) != n {
				t.Fatalf("event %+v carries %d verdicts for %d pairs", e, len(e.Verdicts), n)
			}
			if n > 1 {
				if e.Kind != Purchased || e.Group < 0 || len(sc.journaled) > 0 || sc.tier != nil {
					t.Fatalf("span %+v where precedence is not uniform", e)
				}
				g := sc.groups[e.Group]
				fixed, others := g.A, g.B
				if e.Column {
					fixed, others = g.B, g.A
				}
				at := slices.Index(others, e.Js[0])
				if g.Pairs != nil || e.Column != g.Columns || !slices.Contains(fixed, e.I) || at < 0 || at+n > len(others) || !slices.Equal(others[at:at+n], e.Js) {
					t.Fatalf("span %+v is not a stretch of one row (column) of group %+v", e, g)
				}
				if bought%chunk+n > chunk || bought%progressStride+n > progressStride {
					t.Fatalf("span %+v after %d purchases crosses a chunk (%d) or stride boundary", e, bought, chunk)
				}
			}
			if e.Kind == Purchased {
				bought += n
			}
		}

		journaled := make(map[[2]int]bool, len(sc.journaled))
		for _, v := range sc.journaled {
			journaled[[2]int{int(v.I), int(v.J)}] = v.Matched
		}
		seen := make(map[[2]int]bool, len(got.trace))
		var delivered int64
		var walked [][2]int
		for _, e := range got.trace {
			p := [2]int{e.I, e.J}
			if seen[p] {
				t.Fatalf("pair %v delivered twice", p)
			}
			seen[p] = true
			if e.Group >= 0 {
				walked = append(walked, p)
			} else if e.Kind != Replayed {
				t.Fatalf("event %+v outside the walk is not a replay", e)
			}
			matched, isJournaled := journaled[p]
			switch e.Kind {
			case Replayed:
				if !isJournaled || e.Matched != matched {
					t.Fatalf("replayed %+v, journal says %v/%v", e, matched, isJournaled)
				}
				delivered++
			case Purchased:
				if isJournaled || e.Matched != verdictOf(e.I, e.J) {
					t.Fatalf("purchase %+v re-buys a journaled pair or carries the wrong verdict", e)
				}
				delivered++
			case Tiered:
				if isJournaled || !sc.tier[p] || e.Matched {
					t.Fatalf("tier event %+v disagrees with the hook's %v (journaled %v)", e, sc.tier[p], isJournaled)
				}
			}
		}
		if spent := int64(got.calls + len(sc.journaled)); spent != delivered || spent > int64(budget) {
			t.Fatalf("spent %d (%d bought, %d journaled) for %d delivered purchases, budget %d", spent, got.calls, len(sc.journaled), delivered, budget)
		}
		for p := range journaled {
			if !seen[p] {
				t.Fatalf("journaled purchase %v never delivered", p)
			}
		}
		// The walked events are the walk itself — all of it when a tier or
		// a residual sink keeps it going, a prefix otherwise — except that
		// with the tier on and no residual sink the unaffordable uncertain
		// pairs are walked but have no event.
		if sc.tier != nil && !sc.residual {
			x := 0
			for _, p := range walk {
				if x < len(walked) && walked[x] == p {
					x++
				} else if _, bought := journaled[p]; bought || sc.tier[p] {
					t.Fatalf("walk pair %v has a label but no event in order (next event %d of %v)", p, x, walked)
				}
			}
			if x != len(walked) {
				t.Fatalf("events %v are not a subsequence of the walk %v", walked, walk)
			}
			return
		}
		if len(walked) > len(walk) || (sc.residual && len(walked) != len(walk)) {
			t.Fatalf("%d walked events for a walk of %d", len(walked), len(walk))
		}
		for x, p := range walked {
			if walk[x] != p {
				t.Fatalf("event %d is pair %v, the walk has %v there", x, p, walk[x])
			}
		}
	})
}
