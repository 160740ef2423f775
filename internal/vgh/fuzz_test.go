package vgh

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzParse checks that arbitrary inputs never panic the parser and that
// every successfully parsed hierarchy passes full validation and
// round-trips through Dump.
func FuzzParse(f *testing.F) {
	f.Add("ANY\n  A\n    a1\n    a2\n  B\n    b1\n")
	f.Add(educationText)
	f.Add("ANY\n")
	f.Add("# comment\nANY\n\tA\n")
	f.Add("ANY\n  A\n  A\n")
	f.Add("  indented root\n")
	f.Fuzz(func(t *testing.T, input string) {
		h, err := Parse("fuzz", strings.NewReader(input))
		if err != nil {
			return
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("parsed hierarchy fails validation: %v\ninput: %q", err, input)
		}
		h2, err := Parse("fuzz", strings.NewReader(h.Dump()))
		if err != nil {
			t.Fatalf("Dump output does not re-parse: %v\ninput: %q", err, input)
		}
		if h2.NumLeaves() != h.NumLeaves() {
			t.Fatalf("round trip changed leaf count %d -> %d", h.NumLeaves(), h2.NumLeaves())
		}
	})
}

// FuzzPathCodeAndIndex checks the O(1) lookups the anonymizer's specialize
// reads against the definitions they replace. Path codes: on a tree grown
// from shape (node i, breadth first, gets shape[i] % 17 children), every
// node's digit at every depth names the position of GeneralizeToDepth's
// ancestor among its parent's children (the tree stops at 128 nodes, which
// keeps the minimizer quick). Interval indexes: at every level, At — now
// the interval of Index's number, from cached widths — equals bit for bit
// what At computed before (atReference), the index lies in
// [0, Branch^level), and two values share an index exactly when they share
// an interval; for v, u, the edges of v's interval at every level — values
// on boundaries — and Min − 1 and Max, outside [Min, Max).
func FuzzPathCodeAndIndex(f *testing.F) {
	f.Add([]byte{3, 2, 0, 4, 1, 1, 5}, 17.0, 64.0, uint8(2), uint8(3), 25.0, 33.0)
	f.Add([]byte{16, 16, 16, 16}, 0.0, 100.0, uint8(3), uint8(4), 100.0/3, 66.66666666666667)
	f.Add([]byte{1, 1, 1, 1, 1, 2}, -5.5, 0.3, uint8(7), uint8(6), -5.5, -5.2)
	f.Add([]byte{2}, 17.0, 64.0, uint8(2), uint8(3), 81.0, 80.99999999999999)
	f.Add([]byte{0}, 17.0, 64.0, uint8(2), uint8(3), 16.999999999999996, 17.0)
	f.Add([]byte{5, 0, 3}, 1e6, 1e-3, uint8(10), uint8(5), math.Inf(1), 1e6+5e-4)
	f.Add([]byte{}, 0.1, 0.2, uint8(3), uint8(2), math.Inf(-1), 0.30000000000000004)
	f.Fuzz(func(t *testing.T, shape []byte, lo, span float64, branch, depth uint8, v, u float64) {
		checkPathCodes(t, shape)
		ih, err := NewIntervalHierarchy("fuzz", lo, lo+span, 2+int(branch%15), int(depth%16))
		if err != nil || math.IsNaN(v) || math.IsNaN(u) {
			return
		}
		for level := 0; level <= ih.Depth()+1; level++ {
			iv := ih.At(v, level)
			xs := []float64{v, u, iv.Lo, iv.Hi, ih.Min() - 1, ih.Max()}
			for i, x := range xs {
				idx := ih.Index(x, level)
				if got, want := ih.At(x, level), atReference(ih, x, level); got != want {
					t.Fatalf("level %d, v %v: At = %v (index %d), before %v", level, x, got, idx, want)
				}
				if last := math.Pow(float64(ih.Branch()), float64(min(level, ih.Depth()))); idx < 0 || float64(idx) >= last {
					t.Fatalf("level %d, v %v: index %d outside [0, %v)", level, x, idx, last)
				}
				for _, y := range xs[:i] {
					if sameIdx, sameIv := idx == ih.Index(y, level), ih.At(x, level) == ih.At(y, level); sameIdx != sameIv {
						t.Fatalf("level %d: %v and %v share an index %v, an interval %v", level, x, y, sameIdx, sameIv)
					}
				}
			}
		}
	})
}

// atReference is IntervalHierarchy.At as it was computed before Index:
// width and last index recomputed on every call.
func atReference(h *IntervalHierarchy, v float64, level int) Interval {
	if level <= 0 {
		return Interval{Lo: h.Min(), Hi: h.Max()}
	}
	level = min(level, h.Depth())
	w := h.Range() / math.Pow(float64(h.Branch()), float64(level))
	idx := math.Floor((v - h.Min()) / w)
	maxIdx := math.Pow(float64(h.Branch()), float64(level)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > maxIdx {
		idx = maxIdx
	}
	return Interval{Lo: h.Min() + idx*w, Hi: h.Min() + (idx+1)*w}
}

func checkPathCodes(t *testing.T, shape []byte) {
	t.Helper()
	b := NewBuilder("fuzz", "n0")
	queue, next := []string{"n0"}, 1
	for i := 0; i < len(shape) && len(queue) > 0; i++ {
		parent := queue[0]
		queue = queue[1:]
		for c := 0; c < int(shape[i]%17) && next < 128; c++ {
			name := "n" + strconv.Itoa(next)
			next++
			b.Add(parent, name)
			queue = append(queue, name)
		}
	}
	h, err := b.Build()
	if err != nil {
		return // a lone root has no leaves
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		for d := 1; d <= n.Depth(); d++ {
			anc := h.GeneralizeToDepth(n, d)
			want := slices.Index(anc.Parent.Children, anc)
			if got := h.Digit(d).Of(n.PathCode()); int(got) != want {
				t.Fatalf("node %s, depth %d: digit %d, ancestor %s is child %d", n.Value, d, got, anc.Value, want)
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(h.Root())
}
