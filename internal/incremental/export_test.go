package incremental

import "pprl/internal/resolve"

// ObserveEvents shows fn every event the kernel delivers to the engine's
// sink, before the engine files it.
func (e *Engine) ObserveEvents(fn func(resolve.Event)) { e.onEvent = fn }
