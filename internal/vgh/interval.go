package vgh

import (
	"fmt"
	"math"
)

// Interval is a half-open numeric range [Lo, Hi). A fully specialized
// continuous value is represented as the degenerate interval [v, v].
type Interval struct {
	Lo, Hi float64
}

// Point returns the degenerate interval holding a single concrete value.
func Point(v float64) Interval { return Interval{Lo: v, Hi: v} }

// IsPoint reports whether the interval holds exactly one value.
func (iv Interval) IsPoint() bool { return iv.Lo == iv.Hi }

// Width returns Hi - Lo; zero for a point.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether v lies in the interval. Points contain exactly
// their own value; proper intervals are half-open.
func (iv Interval) Contains(v float64) bool {
	if iv.IsPoint() {
		return v == iv.Lo
	}
	return iv.Lo <= v && v < iv.Hi
}

// ContainsInterval reports whether other is fully inside iv.
func (iv Interval) ContainsInterval(other Interval) bool {
	if other.IsPoint() {
		return iv.Contains(other.Lo)
	}
	return iv.Lo <= other.Lo && other.Hi <= iv.Hi
}

// Overlaps reports whether the two intervals share at least one value.
func (iv Interval) Overlaps(other Interval) bool {
	if iv.IsPoint() {
		return other.Contains(iv.Lo)
	}
	if other.IsPoint() {
		return iv.Contains(other.Lo)
	}
	return iv.Lo < other.Hi && other.Lo < iv.Hi
}

// Gap returns the smallest distance between any value of iv and any value
// of other: zero when they overlap.
func (iv Interval) Gap(other Interval) float64 {
	if iv.Overlaps(other) {
		return 0
	}
	if iv.Hi <= other.Lo {
		return other.Lo - iv.Hi
	}
	return iv.Lo - other.Hi
}

// Span returns the largest distance between any value of iv and any value
// of other.
func (iv Interval) Span(other Interval) float64 {
	return math.Max(math.Abs(iv.Hi-other.Lo), math.Abs(other.Hi-iv.Lo))
}

func (iv Interval) String() string {
	if iv.IsPoint() {
		return formatNum(iv.Lo)
	}
	return fmt.Sprintf("[%s-%s)", formatNum(iv.Lo), formatNum(iv.Hi))
}

func formatNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// IntervalHierarchy generalizes continuous values into nested equi-width
// intervals. Level 0 is the root interval [Min, Max); each level below
// splits every interval into Branch equal parts, down to Depth levels,
// mirroring the paper's 4-level hierarchy whose leaf nodes cover 8-unit
// intervals.
type IntervalHierarchy struct {
	name   string
	min    float64
	max    float64
	branch int
	depth  int // number of levels below the root; leaves are at this depth
	// widths[l] and last[l] are level l's interval width and greatest
	// interval index.
	widths []float64
	last   []float64
}

// NewIntervalHierarchy builds a hierarchy over [min, max) with the given
// branching factor and depth. depth 0 means the hierarchy has only the
// root (every value generalizes to [min, max)).
func NewIntervalHierarchy(name string, min, max float64, branch, depth int) (*IntervalHierarchy, error) {
	switch {
	case math.IsNaN(max-min) || math.IsInf(max-min, 0):
		return nil, fmt.Errorf("vgh: interval hierarchy %q: bounds [%v, %v) have no finite width", name, min, max)
	case max <= min:
		return nil, fmt.Errorf("vgh: interval hierarchy %q: max %v <= min %v", name, max, min)
	case branch < 2:
		return nil, fmt.Errorf("vgh: interval hierarchy %q: branch %d < 2", name, branch)
	case depth < 0:
		return nil, fmt.Errorf("vgh: interval hierarchy %q: negative depth %d", name, depth)
	}
	// Leaf intervals must be wider than float64 can resolve across the
	// domain, or two of them could compute to the same bounds: then equal
	// intervals would not mean equal indexes (Index).
	m := math.Max(math.Abs(min), math.Abs(max))
	if leaf := (max - min) / math.Pow(float64(branch), float64(depth)); leaf < 8*(math.Nextafter(m, math.Inf(1))-m) {
		return nil, fmt.Errorf("vgh: interval hierarchy %q: leaf intervals %g wide are too narrow for float64 near %g", name, leaf, m)
	}
	h := &IntervalHierarchy{name: name, min: min, max: max, branch: branch, depth: depth,
		widths: make([]float64, depth+1), last: make([]float64, depth+1)}
	for l := range h.widths {
		n := math.Pow(float64(branch), float64(l)) // intervals at level l
		h.widths[l], h.last[l] = (max-min)/n, n-1
	}
	return h, nil
}

// MustIntervalHierarchy is NewIntervalHierarchy that panics on error, for
// static definitions.
func MustIntervalHierarchy(name string, min, max float64, branch, depth int) *IntervalHierarchy {
	h, err := NewIntervalHierarchy(name, min, max, branch, depth)
	if err != nil {
		panic(err)
	}
	return h
}

// Name returns the attribute name the hierarchy describes.
func (h *IntervalHierarchy) Name() string { return h.name }

// Min returns the inclusive lower bound of the domain.
func (h *IntervalHierarchy) Min() float64 { return h.min }

// Max returns the exclusive upper bound of the domain.
func (h *IntervalHierarchy) Max() float64 { return h.max }

// Range returns the domain width, the normalization factor for distances
// (normFactor in the paper).
func (h *IntervalHierarchy) Range() float64 { return h.max - h.min }

// Depth returns the number of interval levels below the root. A concrete
// point value sits at depth Depth()+1 conceptually: one more specialization
// step past the leaf intervals.
func (h *IntervalHierarchy) Depth() int { return h.depth }

// Branch returns the per-level fan-out.
func (h *IntervalHierarchy) Branch() int { return h.branch }

// LeafWidth returns the width of a deepest-level interval.
func (h *IntervalHierarchy) LeafWidth() float64 { return h.widths[h.depth] }

// At returns the interval at the given level containing v. Level 0 is the
// whole domain; level Depth() is a leaf interval. Values outside the
// domain are clamped to the nearest interval. v must not be NaN.
func (h *IntervalHierarchy) At(v float64, level int) Interval {
	if level <= 0 {
		return h.Root()
	}
	idx, w := h.Index(v, level), h.widths[min(level, h.depth)]
	return Interval{Lo: h.min + float64(idx)*w, Hi: h.min + float64(idx+1)*w}
}

// Index returns the position, counting from Min, of the interval At(v,
// level) among its level's intervals: two values share an interval exactly
// when they share its index. It reads the level's width and last index,
// cached at construction. v must not be NaN.
func (h *IntervalHierarchy) Index(v float64, level int) int {
	if level <= 0 {
		return 0
	}
	level = min(level, h.depth)
	idx := math.Floor((v - h.min) / h.widths[level])
	return int(math.Max(0, math.Min(idx, h.last[level])))
}

// Parent returns the interval one level up from iv, or the root interval
// if iv is at or above level 1. Point values are promoted to their leaf
// interval.
func (h *IntervalHierarchy) Parent(iv Interval) Interval {
	if iv.IsPoint() {
		return h.At(iv.Lo, h.depth)
	}
	level := h.LevelOf(iv)
	if level <= 1 {
		return Interval{Lo: h.min, Hi: h.max}
	}
	// Use the midpoint so boundary rounding cannot select a neighbor.
	return h.At(iv.Lo+iv.Width()/2, level-1)
}

// Children returns the Branch sub-intervals one level below iv. Leaf
// intervals have no children; point values have none either.
func (h *IntervalHierarchy) Children(iv Interval) []Interval {
	if iv.IsPoint() {
		return nil
	}
	level := h.LevelOf(iv)
	if level >= h.depth {
		return nil
	}
	w := iv.Width() / float64(h.branch)
	out := make([]Interval, h.branch)
	for i := range out {
		out[i] = Interval{Lo: iv.Lo + float64(i)*w, Hi: iv.Lo + float64(i+1)*w}
	}
	return out
}

// LevelOf returns the hierarchy level whose interval width matches iv.
// Points report Depth()+1 (fully specialized, below the leaf intervals).
func (h *IntervalHierarchy) LevelOf(iv Interval) int {
	if iv.IsPoint() {
		return h.depth + 1
	}
	ratio := (h.max - h.min) / iv.Width()
	level := int(math.Round(math.Log(ratio) / math.Log(float64(h.branch))))
	if level < 0 {
		level = 0
	}
	if level > h.depth {
		level = h.depth
	}
	return level
}

// Root returns the whole-domain interval.
func (h *IntervalHierarchy) Root() Interval { return Interval{Lo: h.min, Hi: h.max} }
