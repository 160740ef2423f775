package incremental

import "pprl/internal/resolve"

// ObserveEvents shows fn every event the kernel delivers to the engine's
// sink, before the engine files it.
func (e *Engine) ObserveEvents(fn func(resolve.Event)) { e.onEvent = fn }

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
