package vgh

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// educationText is the Education VGH from Figure 1 of the paper.
const educationText = `ANY
  Secondary
    Junior Sec.
      9th
      10th
    Senior Sec.
      11th
      12th
  University
    Bachelors
    Grad School
      Masters
      Doctorate
`

func education(t testing.TB) *Hierarchy {
	t.Helper()
	h, err := Parse("education", strings.NewReader(educationText))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return h
}

func TestBuilderBasic(t *testing.T) {
	h := NewBuilder("attr", "ANY").
		AddAll("ANY", "A", "B").
		AddAll("A", "a1", "a2").
		AddAll("B", "b1", "b2", "b3").
		MustBuild()
	if got, want := h.NumLeaves(), 5; got != want {
		t.Fatalf("NumLeaves = %d, want %d", got, want)
	}
	if got, want := h.Height(), 2; got != want {
		t.Fatalf("Height = %d, want %d", got, want)
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if h.Lookup("a1").Parent != h.Lookup("A") {
		t.Errorf("a1's parent is %v, want A", h.Lookup("a1").Parent)
	}
	if h.Lookup("A").IsLeaf() || !h.Lookup("a1").IsLeaf() {
		t.Errorf("IsLeaf confuses internal and leaf nodes")
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("x", "ANY").Add("missing", "v").Build(); err == nil {
		t.Error("expected error for unknown parent")
	}
	if _, err := NewBuilder("x", "ANY").Add("ANY", "v").Add("ANY", "v").Build(); err == nil {
		t.Error("expected error for duplicate value")
	}
	if _, err := NewBuilder("x", "ANY").Build(); err != nil {
		// A bare root is a single leaf — legal.
		t.Errorf("bare root should build: %v", err)
	}
}

func TestLeafRangesContiguous(t *testing.T) {
	h := education(t)
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got, want := h.NumLeaves(), 7; got != want {
		t.Fatalf("NumLeaves = %d, want %d", got, want)
	}
	sec := h.MustLookup("Secondary")
	lo, hi := sec.LeafRange()
	if hi-lo != 4 {
		t.Errorf("Secondary covers %d leaves, want 4", hi-lo)
	}
	for i := lo; i < hi; i++ {
		if !sec.Covers(h.Leaf(i)) {
			t.Errorf("Secondary should cover leaf %q", h.Leaf(i).Value)
		}
	}
}

func TestCoversOverlapsIntersection(t *testing.T) {
	h := education(t)
	sec := h.MustLookup("Secondary")
	sen := h.MustLookup("Senior Sec.")
	uni := h.MustLookup("University")
	masters := h.MustLookup("Masters")

	if !sec.Covers(sen) {
		t.Error("Secondary should cover Senior Sec.")
	}
	if sen.Covers(sec) {
		t.Error("Senior Sec. should not cover Secondary")
	}
	if sec.Overlaps(uni) {
		t.Error("Secondary and University are disjoint")
	}
	if !uni.Overlaps(masters) {
		t.Error("University overlaps Masters")
	}
	if got := sec.IntersectionSize(sen); got != 2 {
		t.Errorf("|Secondary ∩ Senior Sec.| = %d, want 2", got)
	}
	if got := sec.IntersectionSize(uni); got != 0 {
		t.Errorf("|Secondary ∩ University| = %d, want 0", got)
	}
	if got := masters.IntersectionSize(masters); got != 1 {
		t.Errorf("|Masters ∩ Masters| = %d, want 1", got)
	}
}

func TestGeneralizeToDepth(t *testing.T) {
	h := education(t)
	m := h.MustLookup("Masters")
	if got := h.GeneralizeToDepth(m, 0); got != h.Root() {
		t.Errorf("depth 0 = %v, want root", got)
	}
	if got := h.GeneralizeToDepth(m, 1); got != h.MustLookup("University") {
		t.Errorf("depth 1 = %v, want University", got)
	}
	if got := h.GeneralizeToDepth(m, 2); got != h.MustLookup("Grad School") {
		t.Errorf("depth 2 = %v, want Grad School", got)
	}
	if got := h.GeneralizeToDepth(m, 3); got != m {
		t.Errorf("depth 3 = %v, want Masters itself", got)
	}
	if got := h.GeneralizeToDepth(m, 99); got != m {
		t.Errorf("deeper than node = %v, want node unchanged", got)
	}
}

// TestPathCodes: on Figure 1's Education hierarchy each depth's digit of
// a path code is the ancestor's position among its siblings, and a
// hierarchy whose widest child lists need more than 32 bits in all is
// refused by name.
func TestPathCodes(t *testing.T) {
	h := education(t)
	m := h.MustLookup("Masters") // University (1) → Grad School (1) → Masters (0)
	for d, want := range []uint32{1: 1, 2: 1, 3: 0} {
		if d > 0 && h.Digit(d).Of(m.PathCode()) != want {
			t.Errorf("Masters: digit %d = %d, want %d", d, h.Digit(d).Of(m.PathCode()), want)
		}
	}
	if h.Root().PathCode() != 0 {
		t.Errorf("root path code %d, want 0", h.Root().PathCode())
	}

	// Eleven levels, each with one node of five children: 3 bits a level.
	b, parent := NewBuilder("wide", "ANY"), "ANY"
	for d := 0; d < 11; d++ {
		for c := 0; c < 5; c++ {
			b.Add(parent, fmt.Sprintf("d%d-%d", d, c))
		}
		parent = fmt.Sprintf("d%d-0", d)
	}
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), `"wide"`) {
		t.Errorf("33-bit path codes: err = %v, want a refusal naming the hierarchy", err)
	}
}

func TestAncestors(t *testing.T) {
	h := education(t)
	anc := h.Ancestors(h.MustLookup("Masters"))
	want := []string{"Grad School", "University", "ANY"}
	if len(anc) != len(want) {
		t.Fatalf("Ancestors length = %d, want %d", len(anc), len(want))
	}
	for i, n := range anc {
		if n.Value != want[i] {
			t.Errorf("ancestor %d = %s, want %s", i, n.Value, want[i])
		}
	}
	if got := h.Ancestors(h.Root()); len(got) != 0 {
		t.Errorf("root ancestors = %v, want empty", got)
	}
}

func TestFlat(t *testing.T) {
	h := Flat("sex", "ANY", "Male", "Female")
	if h.Height() != 1 || h.NumLeaves() != 2 {
		t.Fatalf("Flat: height %d leaves %d, want 1 and 2", h.Height(), h.NumLeaves())
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDumpRoundTrip(t *testing.T) {
	h := education(t)
	h2, err := Parse("education", strings.NewReader(h.Dump()))
	if err != nil {
		t.Fatalf("re-Parse of Dump: %v", err)
	}
	if h2.NumLeaves() != h.NumLeaves() || h2.Height() != h.Height() {
		t.Fatalf("round trip changed shape: %d/%d leaves, %d/%d height",
			h.NumLeaves(), h2.NumLeaves(), h.Height(), h2.Height())
	}
	for i, leaf := range h.Leaves() {
		if h2.Leaf(i).Value != leaf.Value {
			t.Errorf("leaf %d = %q, want %q", i, h2.Leaf(i).Value, leaf.Value)
		}
	}
}

// randomHierarchy builds a random tree for property tests.
func randomHierarchy(r *rand.Rand) *Hierarchy {
	b := NewBuilder("rand", "ANY")
	id := 0
	var grow func(parent string, depth int)
	grow = func(parent string, depth int) {
		n := 1 + r.Intn(3)
		for i := 0; i < n; i++ {
			id++
			label := parent + "." + string(rune('a'+i))
			b.Add(parent, label)
			if depth < 3 && r.Intn(2) == 0 {
				grow(label, depth+1)
			}
		}
	}
	grow("ANY", 0)
	return b.MustBuild()
}

// Property: for any two nodes, Overlaps(a,b) iff one is an ancestor of the
// other (trees give laminar leaf ranges), and IntersectionSize equals the
// smaller leaf count in that case.
func TestOverlapIsAncestryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomHierarchy(r)
		if err := h.Validate(); err != nil {
			t.Logf("Validate: %v", err)
			return false
		}
		var nodes []*Node
		var collect func(n *Node)
		collect = func(n *Node) {
			nodes = append(nodes, n)
			for _, c := range n.Children {
				collect(c)
			}
		}
		collect(h.Root())
		for i := 0; i < 50; i++ {
			a := nodes[r.Intn(len(nodes))]
			b := nodes[r.Intn(len(nodes))]
			ancestry := a.Covers(b) || b.Covers(a)
			if a.Overlaps(b) != ancestry {
				t.Logf("Overlaps(%s,%s)=%v but ancestry=%v", a, b, a.Overlaps(b), ancestry)
				return false
			}
			wantInter := 0
			if ancestry {
				wantInter = min(a.LeafCount(), b.LeafCount())
			}
			if a.IntersectionSize(b) != wantInter {
				t.Logf("IntersectionSize(%s,%s)=%d want %d", a, b, a.IntersectionSize(b), wantInter)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
