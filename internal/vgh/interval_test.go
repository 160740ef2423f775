package vgh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Lo: 35, Hi: 37}
	if iv.IsPoint() {
		t.Error("[35,37) is not a point")
	}
	if got := iv.Width(); got != 2 {
		t.Errorf("Width = %v, want 2", got)
	}
	if !iv.Contains(35) || !iv.Contains(36.9) {
		t.Error("[35,37) should contain 35 and 36.9")
	}
	if iv.Contains(37) {
		t.Error("[35,37) is half-open; should not contain 37")
	}
	p := Point(35)
	if !p.IsPoint() || !p.Contains(35) || p.Contains(35.1) {
		t.Error("Point(35) should contain exactly 35")
	}
	if got := iv.String(); got != "[35-37)" {
		t.Errorf("String = %q, want [35-37)", got)
	}
	if got := p.String(); got != "35" {
		t.Errorf("point String = %q, want 35", got)
	}
}

func TestIntervalContainment(t *testing.T) {
	outer := Interval{Lo: 1, Hi: 99}
	inner := Interval{Lo: 35, Hi: 37}
	if !outer.ContainsInterval(inner) {
		t.Error("[1,99) should contain [35,37)")
	}
	if inner.ContainsInterval(outer) {
		t.Error("[35,37) should not contain [1,99)")
	}
	if !outer.ContainsInterval(Point(50)) {
		t.Error("[1,99) should contain point 50")
	}
	if outer.ContainsInterval(Point(99)) {
		t.Error("[1,99) should not contain point 99 (half-open)")
	}
	if !inner.ContainsInterval(inner) {
		t.Error("an interval contains itself")
	}
}

func TestGapAndSpan(t *testing.T) {
	a := Interval{Lo: 1, Hi: 35}
	b := Interval{Lo: 35, Hi: 37}
	if got := a.Gap(b); got != 0 {
		t.Errorf("adjacent intervals Gap = %v, want 0 (touching at boundary counts per half-open semantics as no overlap, gap 0)", got)
	}
	c := Interval{Lo: 40, Hi: 50}
	if got := b.Gap(c); got != 3 {
		t.Errorf("Gap([35,37),[40,50)) = %v, want 3", got)
	}
	if got := c.Gap(b); got != 3 {
		t.Errorf("Gap symmetric: %v, want 3", got)
	}
	if got := b.Span(c); got != 15 {
		t.Errorf("Span([35,37),[40,50)) = %v, want 15", got)
	}
	// Points.
	if got := Point(10).Gap(Point(4)); got != 6 {
		t.Errorf("Gap(10,4) = %v, want 6", got)
	}
	if got := Point(10).Span(Point(4)); got != 6 {
		t.Errorf("Span(10,4) = %v, want 6", got)
	}
}

func TestIntervalHierarchyLevels(t *testing.T) {
	// Mirror the paper's Adult age hierarchy: 4 levels below the root
	// would give leaf width range/2^4; instead the paper states 4 levels
	// total with 8-unit leaves. We build [17,81) with branch 2 depth 3:
	// widths 64, 32, 16, 8.
	h := MustIntervalHierarchy("age", 17, 81, 2, 3)
	if got := h.LeafWidth(); got != 8 {
		t.Fatalf("LeafWidth = %v, want 8", got)
	}
	iv := h.At(35, 3)
	if iv.Lo != 33 || iv.Hi != 41 {
		t.Errorf("leaf of 35 = %v, want [33-41)", iv)
	}
	if got := h.At(35, 0); got != (Interval{Lo: 17, Hi: 81}) {
		t.Errorf("level 0 = %v, want root", got)
	}
	if got := h.LevelOf(iv); got != 3 {
		t.Errorf("LevelOf(leaf) = %d, want 3", got)
	}
	if got := h.LevelOf(h.Root()); got != 0 {
		t.Errorf("LevelOf(root) = %d, want 0", got)
	}
	if got := h.LevelOf(Point(35)); got != 4 {
		t.Errorf("LevelOf(point) = %d, want depth+1 = 4", got)
	}
}

func TestIntervalHierarchyParentChildren(t *testing.T) {
	h := MustIntervalHierarchy("age", 0, 64, 2, 3)
	leaf := h.At(11, 3) // [8,16)
	if leaf.Lo != 8 || leaf.Hi != 16 {
		t.Fatalf("leaf = %v, want [8-16)", leaf)
	}
	parent := h.Parent(leaf)
	if parent.Lo != 0 || parent.Hi != 16 {
		t.Errorf("Parent = %v, want [0-16)", parent)
	}
	grand := h.Parent(parent)
	if grand.Lo != 0 || grand.Hi != 32 {
		t.Errorf("grandparent = %v, want [0-32)", grand)
	}
	if got := h.Parent(grand); got != h.Root() {
		t.Errorf("great-grandparent = %v, want root", got)
	}
	if got := h.Parent(h.Root()); got != h.Root() {
		t.Errorf("Parent(root) = %v, want root (idempotent)", got)
	}
	if got := h.Parent(Point(11)); got != leaf {
		t.Errorf("Parent(point 11) = %v, want its leaf %v", got, leaf)
	}

	kids := h.Children(parent)
	if len(kids) != 2 || kids[0] != (Interval{0, 8}) || kids[1] != (Interval{8, 16}) {
		t.Errorf("Children([0,16)) = %v, want [[0-8) [8-16)]", kids)
	}
	if got := h.Children(leaf); got != nil {
		t.Errorf("Children(leaf) = %v, want nil", got)
	}
	if got := h.Children(Point(3)); got != nil {
		t.Errorf("Children(point) = %v, want nil", got)
	}
}

func TestIntervalHierarchyClamping(t *testing.T) {
	h := MustIntervalHierarchy("age", 0, 64, 2, 3)
	lo := h.At(-5, 3)
	if lo.Lo != 0 || lo.Hi != 8 {
		t.Errorf("below-domain value maps to %v, want first leaf [0-8)", lo)
	}
	hi := h.At(1000, 3)
	if hi.Lo != 56 || hi.Hi != 64 {
		t.Errorf("above-domain value maps to %v, want last leaf [56-64)", hi)
	}
	edge := h.At(64, 3)
	if edge.Lo != 56 || edge.Hi != 64 {
		t.Errorf("Max itself maps to %v, want last leaf", edge)
	}
}

func TestNewIntervalHierarchyErrors(t *testing.T) {
	if _, err := NewIntervalHierarchy("x", 10, 10, 2, 3); err == nil {
		t.Error("empty domain should error")
	}
	if _, err := NewIntervalHierarchy("x", 0, 10, 1, 3); err == nil {
		t.Error("branch < 2 should error")
	}
	if _, err := NewIntervalHierarchy("x", 0, 10, 2, -1); err == nil {
		t.Error("negative depth should error")
	}
	for _, bounds := range [][2]float64{{0, math.Inf(1)}, {math.Inf(-1), 0}, {math.NaN(), 1}, {-math.MaxFloat64, math.MaxFloat64}} {
		if _, err := NewIntervalHierarchy("x", bounds[0], bounds[1], 2, 1); err == nil {
			t.Errorf("bounds %v should error: no finite width", bounds)
		}
	}
	// Leaf intervals float64 cannot tell apart: 10/2^50 is under 8 ulps of
	// 10, and 1e-12 under one ulp of 1e9.
	if _, err := NewIntervalHierarchy("x", 0, 10, 2, 50); err == nil {
		t.Error("2^50 leaf intervals over [0, 10) should error")
	}
	if _, err := NewIntervalHierarchy("x", 1e9, 1e9+1e-3, 10, 9); err == nil {
		t.Error("1e-12-wide leaf intervals near 1e9 should error")
	}
	if _, err := NewIntervalHierarchy("x", 0, 10, 2, 40); err != nil {
		t.Errorf("2^40 leaf intervals over [0, 10): %v", err)
	}
}

// Property: At(v, L) always contains v (after clamping into the domain),
// and climbing Parent from the leaf reaches the root in exactly depth
// steps with each interval containing the previous one.
func TestIntervalHierarchyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		min := float64(r.Intn(50))
		width := float64(int(8) * (1 << (2 + r.Intn(3)))) // 32, 64, 128
		branch := 2 + r.Intn(2)
		depth := 1 + r.Intn(3)
		h := MustIntervalHierarchy("p", min, min+width, branch, depth)
		for i := 0; i < 20; i++ {
			v := min + r.Float64()*width*0.999
			cur := h.At(v, depth)
			if !cur.Contains(v) {
				t.Logf("leaf %v does not contain %v", cur, v)
				return false
			}
			steps := 0
			for cur != h.Root() {
				next := h.Parent(cur)
				if !next.ContainsInterval(cur) {
					t.Logf("parent %v does not contain child %v", next, cur)
					return false
				}
				if math.Abs(next.Width()/cur.Width()-float64(branch)) > 1e-9 {
					t.Logf("parent width %v not branch× child width %v", next.Width(), cur.Width())
					return false
				}
				cur = next
				steps++
				if steps > depth {
					t.Logf("did not reach root after %d steps", steps)
					return false
				}
			}
			if steps != depth {
				t.Logf("reached root in %d steps, want %d", steps, depth)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
