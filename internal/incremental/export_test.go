package incremental

import (
	"sort"

	"pprl/internal/resolve"
)

// ObserveEvents shows fn every event the kernel delivers to the engine's
// sink, before the engine files it.
func (e *Engine) ObserveEvents(fn func(resolve.Event)) { e.onEvent = fn }

// Handle reports what handle h of side s is: its record (−1 for a DP
// dummy) and the bin it is a member of.
func (e *Engine) Handle(s, h int) (rec, bin int) {
	for bi, b := range e.sides[s].bins {
		if x := sort.SearchInts(b.members, h); x < len(b.members) && b.members[x] == h {
			return e.sides[s].record(h), bi
		}
	}
	return e.sides[s].record(h), -1
}

// ObserveGroupTies shows fn, for every batch, how many candidate groups it
// ordered and how many pairs of them the order cannot tell apart.
func (e *Engine) ObserveGroupTies(fn func(groups, ties int)) {
	e.onGroups = func(gs []group) {
		ties := 0
		for x := range gs {
			for y := x + 1; y < len(gs); y++ {
				if e.compareGroups(&gs[x], &gs[y]) == 0 {
					ties++
				}
			}
		}
		fn(len(gs), ties)
	}
}
