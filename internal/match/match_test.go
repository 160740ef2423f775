package match

import (
	"math/rand"
	"testing"

	"pprl/internal/blocking"
	"pprl/internal/dataset"
	"pprl/internal/distance"
	"pprl/internal/vgh"
)

func toySchema() (*dataset.Schema, *vgh.Hierarchy) {
	edu := vgh.Flat("edu", "ANY", "a", "b", "c")
	ih := vgh.MustIntervalHierarchy("num", 0, 64, 2, 3)
	return dataset.MustSchema(dataset.CatAttr(edu), dataset.NumAttr(ih)), edu
}

func randomData(schema *dataset.Schema, edu *vgh.Hierarchy, n int, rng *rand.Rand) *dataset.Dataset {
	d := dataset.New(schema)
	leaves := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		d.MustAppend(dataset.Record{EntityID: i, Cells: []dataset.Cell{
			dataset.CatCell(edu, leaves[rng.Intn(3)]),
			dataset.NumCell(float64(rng.Intn(64))),
		}})
	}
	return d
}

// TestHashJoinEqualsFullScan verifies the bucketed matcher against the
// naive quadratic scan.
func TestHashJoinEqualsFullScan(t *testing.T) {
	schema, edu := toySchema()
	rng := rand.New(rand.NewSource(3))
	a := randomData(schema, edu, 50, rng)
	b := randomData(schema, edu, 50, rng)
	qids := []int{0, 1}
	rule, err := blocking.RuleFor(schema, qids, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := TruePairs(a, b, qids, rule)
	if err != nil {
		t.Fatal(err)
	}
	var slow []Pair
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < b.Len(); j++ {
			if rule.DecideExact(blocking.RecordSequence(a, qids, i), blocking.RecordSequence(b, qids, j)) {
				slow = append(slow, Pair{I: i, J: j})
			}
		}
	}
	if len(fast) != len(slow) {
		t.Fatalf("hash join found %d pairs, full scan %d", len(fast), len(slow))
	}
	set := make(map[int64]bool, len(slow))
	for _, p := range slow {
		set[p.Key(b.Len())] = true
	}
	for _, p := range fast {
		if !set[p.Key(b.Len())] {
			t.Fatalf("hash join reported bogus pair %+v", p)
		}
	}
}

// TestNoEqualityAttribute exercises the full-scan fallback: a rule with
// only continuous attributes has nothing to hash-join on.
func TestNoEqualityAttribute(t *testing.T) {
	schema, edu := toySchema()
	rng := rand.New(rand.NewSource(4))
	a := randomData(schema, edu, 20, rng)
	b := randomData(schema, edu, 20, rng)
	rule, err := blocking.NewRule([]distance.Metric{distance.Euclidean{Norm: 64}}, []float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := TruePairs(a, b, []int{1}, rule)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		x := a.Record(p.I).Cells[1].Num
		y := b.Record(p.J).Cells[1].Num
		if diff := x - y; diff > 6.4 || diff < -6.4 {
			t.Fatalf("pair (%d,%d) |%v - %v| exceeds threshold", p.I, p.J, x, y)
		}
	}
	if len(pairs) == 0 {
		t.Error("expected some matches at θ=0.1 over 20×20 pairs")
	}
}

// TestThetaAtLeastOneHamming: a Hamming attribute with θ ≥ 1 must not
// participate in the join key (every pair satisfies it).
func TestThetaAtLeastOneHamming(t *testing.T) {
	schema, edu := toySchema()
	rng := rand.New(rand.NewSource(5))
	a := randomData(schema, edu, 15, rng)
	b := randomData(schema, edu, 15, rng)
	qids := []int{0, 1}
	rule, err := blocking.NewRule(
		[]distance.Metric{distance.Hamming{}, distance.Euclidean{Norm: 64}},
		[]float64{1.0, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := TruePairs(a, b, qids, rule)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < b.Len(); j++ {
			if rule.DecideExact(blocking.RecordSequence(a, qids, i), blocking.RecordSequence(b, qids, j)) {
				count++
			}
		}
	}
	if len(pairs) != count {
		t.Fatalf("got %d pairs, full scan says %d", len(pairs), count)
	}
}

func TestRuleArityMismatch(t *testing.T) {
	schema, edu := toySchema()
	rng := rand.New(rand.NewSource(6))
	a := randomData(schema, edu, 5, rng)
	rule, err := blocking.RuleFor(schema, []int{0, 1}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TruePairs(a, a, []int{0}, rule); err == nil {
		t.Error("QID/rule arity mismatch should fail")
	}
}

func TestPairKey(t *testing.T) {
	p := Pair{I: 3, J: 7}
	if got := p.Key(100); got != 307 {
		t.Errorf("Key = %d, want 307", got)
	}
}
