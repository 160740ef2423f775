package cliutil

import (
	"fmt"
	"math"
	"strconv"
)

// Range is a validated interval for float-valued flags and API fields.
// Every surface that accepts θ, tier thresholds, allowance fractions or
// ε validates through the same Range values, so out-of-range input is
// rejected at flag-parse time with identical error text everywhere
// instead of failing mid-session with whatever the engine happens to
// say.
type Range struct {
	// Name is the flag or field name used in error messages.
	Name string
	// Lo and Hi bound the interval; use ±Inf for unbounded sides.
	Lo, Hi float64
	// LoOpen/HiOpen make the corresponding bound exclusive.
	LoOpen, HiOpen bool
}

// Canonical ranges for the pipeline's float knobs.
var (
	// ThetaRange bounds matching thresholds: any positive value (a
	// threshold ≥ 1 is meaningful — it makes an attribute always
	// match).
	ThetaRange = Range{Name: "-theta", Lo: 0, LoOpen: true, Hi: math.Inf(1), HiOpen: true}
	// EpsilonRange bounds the DP privacy budget.
	EpsilonRange = Range{Name: "-epsilon", Lo: 0, LoOpen: true, Hi: math.Inf(1), HiOpen: true}
	// DeltaRange bounds the DP truncation mass; 0 selects the default.
	DeltaRange = Range{Name: "-dp-delta", Lo: 0, Hi: 0.5, HiOpen: true}
	// TierLowRange bounds the bloom tier's NonMatch threshold; 0 selects
	// the default.
	TierLowRange = Range{Name: "-tier-low", Lo: 0, Hi: 1, HiOpen: true}
	// AllowanceFractionRange bounds the SMC budget as a share of the walked
	// pair space (padded under DP) on a link, of n(n−1)/2 under -dedup.
	AllowanceFractionRange = Range{Name: "-allowance", Lo: 0, Hi: 1}
)

// Named returns a copy of the range with the error-message name
// replaced, for API surfaces whose field names differ from the flags.
func (r Range) Named(name string) Range {
	r.Name = name
	return r
}

// Validate rejects values outside the interval (NaN is always outside).
func (r Range) Validate(v float64) error {
	ok := !math.IsNaN(v) &&
		(v > r.Lo || (!r.LoOpen && v == r.Lo)) &&
		(v < r.Hi || (!r.HiOpen && v == r.Hi))
	if !ok {
		return fmt.Errorf("%s must be in %s, got %v", r.Name, r.Interval(), v)
	}
	return nil
}

// Interval renders the bounds in mathematical notation, e.g. "(0, 1]".
func (r Range) Interval() string {
	open, close := "[", "]"
	if r.LoOpen {
		open = "("
	}
	if r.HiOpen {
		close = ")"
	}
	return open + formatBound(r.Lo) + ", " + formatBound(r.Hi) + close
}

func formatBound(v float64) string {
	if math.IsInf(v, 1) {
		return "∞"
	}
	if math.IsInf(v, -1) {
		return "-∞"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
