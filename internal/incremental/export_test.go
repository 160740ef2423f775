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
