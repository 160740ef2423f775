package heuristic

import (
	"math/rand"
	"reflect"
	"testing"

	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/distance"
	"pprl/internal/vgh"
)

func TestScores(t *testing.T) {
	exp := []float64{0.1, 0.5, 0.3}
	if got := (MinFirst{}).Score(exp); got != 0.1 {
		t.Errorf("MinFirst = %v, want 0.1", got)
	}
	if got := (MaxLast{}).Score(exp); got != 0.5 {
		t.Errorf("MaxLast = %v, want 0.5", got)
	}
	if got := (MinAvgFirst{}).Score(exp); got < 0.2999 || got > 0.3001 {
		t.Errorf("MinAvgFirst = %v, want 0.3", got)
	}
}

func TestNames(t *testing.T) {
	names := map[string]bool{}
	for _, h := range All() {
		names[h.Name()] = true
	}
	for _, want := range []string{"minFirst", "maxLast", "minAvgFirst"} {
		if !names[want] {
			t.Errorf("All() missing %q", want)
		}
	}
}

// fixture builds a blocking result with three Unknown group pairs whose
// expected Hamming distances differ, so the orderings are predictable.
func fixture(t testing.TB) (*blocking.Result, *blocking.Rule) {
	t.Helper()
	h := vgh.MustParse("edu", `ANY
  G1
    a
    b
  G2
    c
    d
    e
    f
`)
	cat := func(n string) vgh.Value { return vgh.CatValue(h.MustLookup(n)) }
	mkView := func(k int, seqs ...vgh.Sequence) *anonymize.Result {
		res := &anonymize.Result{Method: "fixture", K: k, QIDs: []int{0}}
		for i, s := range seqs {
			res.Classes = append(res.Classes, anonymize.Class{Sequence: s, Members: []int{i}})
			res.ClassOf = append(res.ClassOf, i)
		}
		return res
	}
	// R classes: {a} (leaf), G1 (2 leaves), G2 (4 leaves).
	r := mkView(1,
		vgh.Sequence{cat("a")},
		vgh.Sequence{cat("G1")},
		vgh.Sequence{cat("G2")},
	)
	// S: the root, so every pair is Unknown with E[d] = 1 − 1/|V∩W|·…
	s := mkView(1, vgh.Sequence{cat("ANY")})
	rule, err := blocking.NewRule([]distance.Metric{distance.Hamming{}}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := blocking.Block(r, s, rule)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.UnknownGroupPairs()); got != 3 {
		t.Fatalf("fixture has %d unknown group pairs, want 3", got)
	}
	return res, rule
}

func TestOrderAscending(t *testing.T) {
	res, rule := fixture(t)
	// Expected Hamming vs ANY (6 leaves): {a}: 1−1/6 ≈ 0.833;
	// G1: 1−2/12 ≈ 0.833... wait — 1 − |V∩W|/(|V||W|): {a}: 1−1/6;
	// G1: 1−2/(2·6)=0.833; G2: 1−4/(4·6)=0.833 — all equal! Use the
	// diagonal instead: compare classes against themselves via a second
	// blocking of r×r.
	ordered := Order(res, rule, MinAvgFirst{}, false)
	if len(ordered) != 3 {
		t.Fatalf("ordered %d pairs", len(ordered))
	}
	// Ties broken by (RI, SI): deterministic identity order.
	for i, gp := range ordered {
		if gp.RI != i {
			t.Errorf("tie-break order wrong at %d: %+v", i, gp)
		}
	}
}

func TestOrderReverseAndDistinctScores(t *testing.T) {
	h := vgh.MustParse("edu", `ANY
  G1
    a
    b
  G2
    c
    d
    e
    f
`)
	cat := func(n string) vgh.Value { return vgh.CatValue(h.MustLookup(n)) }
	mkView := func(seqs ...vgh.Sequence) *anonymize.Result {
		res := &anonymize.Result{Method: "fixture", K: 1, QIDs: []int{0}}
		for i, s := range seqs {
			res.Classes = append(res.Classes, anonymize.Class{Sequence: s, Members: []int{i}})
			res.ClassOf = append(res.ClassOf, i)
		}
		return res
	}
	// R: G1 and G2; S: G1. E[d](G1,G1) = 1−2/4 = 0.5;
	// E[d](G2,G1) = 1 (disjoint) → would be NonMatch, so use ANY on S.
	// E[d](G1,ANY) = 1−2/12 ≈ 0.833; E[d](G2,ANY) = 1−4/24 ≈ 0.833.
	// Use G1 and ANY on the R side against G1:
	// E[d](G1,G1) = 0.5, E[d](ANY,G1) = 1−2/12 ≈ 0.833.
	r := mkView(vgh.Sequence{cat("G1")}, vgh.Sequence{cat("ANY")})
	s := mkView(vgh.Sequence{cat("G1")})
	rule, err := blocking.NewRule([]distance.Metric{distance.Hamming{}}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := blocking.Block(r, s, rule)
	if err != nil {
		t.Fatal(err)
	}
	asc := Order(res, rule, MinAvgFirst{}, false)
	if len(asc) != 2 || asc[0].RI != 0 || asc[1].RI != 1 {
		t.Fatalf("ascending order = %+v, want G1 pair first", asc)
	}
	desc := Order(res, rule, MinAvgFirst{}, true)
	if desc[0].RI != 1 || desc[1].RI != 0 {
		t.Fatalf("reverse order = %+v, want ANY pair first", desc)
	}
}

func TestShuffleDeterministic(t *testing.T) {
	res, _ := fixture(t)
	a := Shuffle(res, 5)
	b := Shuffle(res, 5)
	if len(a) != 3 || len(b) != 3 {
		t.Fatal("shuffle lost pairs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different orders")
		}
	}
	// A different seed should (for this fixture) differ at least once
	// across a few seeds.
	diff := false
	for seed := int64(6); seed < 12 && !diff; seed++ {
		c := Shuffle(res, seed)
		for i := range a {
			if c[i] != a[i] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Error("shuffle ignores the seed")
	}
}

// TestPlan: the plan walks the ordered class pairs through the walk
// views' members, and a fraction buys its share of the pair space those
// views address — block.TotalPairs() when they are the blocked views, the
// larger space when the walk runs over more handles (a padded release).
func TestPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := vgh.MustParse("edu", "ANY\n  G1\n    a\n    b\n  G2\n    c\n    d\n")
	r, s := fuzzView(rng, h, 13), fuzzView(rng, h, 9)
	rule, err := blocking.NewRule([]distance.Metric{distance.Hamming{}}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	block, err := blocking.Block(r, s, rule)
	if err != nil {
		t.Fatal(err)
	}
	order := Shuffle(block, 1)
	if len(order) == 0 {
		t.Fatal("fixture has no Unknown class pairs")
	}
	walk := Plan(order, r, s, 0, 0.3)
	if want := int64(0.3 * float64(block.TotalPairs())); walk.Budget != want || block.TotalPairs() != 13*9 {
		t.Errorf("budget %d over %d pairs, want %d of 13×9", walk.Budget, block.TotalPairs(), want)
	}
	if walk.Groups != len(order) {
		t.Fatalf("%d groups for %d class pairs", walk.Groups, len(order))
	}
	for k, gp := range order {
		if g := walk.Group(k); !reflect.DeepEqual(g.A, r.Classes[gp.RI].Members) || !reflect.DeepEqual(g.B, s.Classes[gp.SI].Members) || g.Pairs != nil || g.Columns {
			t.Errorf("group %d = %+v, want class pair %+v's members", k, g, gp)
		}
	}
	if walk := Plan(order, r, s, 7, 0.3); walk.Budget != 7 {
		t.Errorf("absolute allowance 7 gave budget %d", walk.Budget)
	}

	// A walk over padded copies: every class twice its size, under
	// handles of its own.
	pad := func(v *anonymize.Result) *anonymize.Result {
		cp := *v
		cp.Classes, cp.ClassOf = nil, nil
		for ci, c := range v.Classes {
			n := 2 * c.Size()
			c.Members = nil
			for range n {
				c.Members = append(c.Members, len(cp.ClassOf))
				cp.ClassOf = append(cp.ClassOf, ci)
			}
			cp.Classes = append(cp.Classes, c)
		}
		return &cp
	}
	if walk := Plan(order, pad(r), pad(s), 0, 0.3); walk.Budget != 140 {
		t.Errorf("padded walk budget %d, want 140 (0.3 of 26×18)", walk.Budget)
	}

	for _, c := range [][2]float64{{-1, 0}, {0, -0.1}} {
		if err := CheckAllowance(int64(c[0]), c[1]); err == nil || err.Error() != "negative SMC allowance" {
			t.Errorf("allowance %v, fraction %v: %v, want the negative allowance refused", c[0], c[1], err)
		}
	}
	if err := CheckAllowance(0, 0); err != nil {
		t.Errorf("a zero budget: %v", err)
	}
}
