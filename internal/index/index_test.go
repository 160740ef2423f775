package index_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/dataset"
	"pprl/internal/distance"
	"pprl/internal/dpblock"
	"pprl/internal/index"
)

// fixture anonymizes an Adult workload at low k so the class-pair space
// is large enough for pruning to matter.
func fixture(t *testing.T, records, k int, theta float64) (av, bv *anonymize.Result, rule *blocking.Rule) {
	t.Helper()
	full := adult.Generate(records, 13)
	alice, bob := dataset.SplitOverlap(full, rand.New(rand.NewSource(14)))
	qids, err := full.Schema().Resolve(adult.DefaultQIDs())
	if err != nil {
		t.Fatal(err)
	}
	anon := anonymize.NewMaxEntropy()
	if av, err = anon.Anonymize(alice, qids, k); err != nil {
		t.Fatal(err)
	}
	if bv, err = anon.Anonymize(bob, qids, k); err != nil {
		t.Fatal(err)
	}
	if rule, err = blocking.RuleFor(full.Schema(), qids, theta); err != nil {
		t.Fatal(err)
	}
	return av, bv, rule
}

// assertEquivalent checks the streamed result against the dense one:
// identical counts, identical label for every class pair, identical
// Unknown group-pair order, and consistent pruning statistics.
func assertEquivalent(t *testing.T, dense, streamed *blocking.Result) {
	t.Helper()
	if dense.MatchedPairs != streamed.MatchedPairs ||
		dense.NonMatchedPairs != streamed.NonMatchedPairs ||
		dense.UnknownPairs != streamed.UnknownPairs ||
		dense.UnknownGroups != streamed.UnknownGroups {
		t.Fatalf("counts diverge: dense M/N/U/UG = %d/%d/%d/%d, indexed = %d/%d/%d/%d",
			dense.MatchedPairs, dense.NonMatchedPairs, dense.UnknownPairs, dense.UnknownGroups,
			streamed.MatchedPairs, streamed.NonMatchedPairs, streamed.UnknownPairs, streamed.UnknownGroups)
	}
	for ri := range dense.R.Classes {
		for si := range dense.S.Classes {
			if d, s := dense.Label(ri, si), streamed.Label(ri, si); d != s {
				t.Fatalf("label (%d,%d): dense %v, indexed %v", ri, si, d, s)
			}
		}
	}
	du, su := dense.UnknownGroupPairs(), streamed.UnknownGroupPairs()
	if len(du) != len(su) {
		t.Fatalf("unknown group pairs: dense %d, indexed %d", len(du), len(su))
	}
	for i := range du {
		if du[i] != su[i] {
			t.Fatalf("unknown group pair %d: dense %+v, indexed %+v", i, du[i], su[i])
		}
	}
	st := streamed.Stats
	if st == nil {
		t.Fatal("indexed result has no Stats")
	}
	if st.RuleEvaluations+st.PrunedClassPairs != st.ClassPairs {
		t.Fatalf("stats do not add up: %d evaluated + %d pruned != %d class pairs",
			st.RuleEvaluations, st.PrunedClassPairs, st.ClassPairs)
	}
}

func TestIndexedMatchesDenseAdult(t *testing.T) {
	av, bv, rule := fixture(t, 1200, 4, 0.05)
	dense, err := blocking.Block(av, bv, rule)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := index.Block(av, bv, rule)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, dense, streamed)
	// Acceptance criterion: at the paper-default θ the index must prune
	// more than half of the class-pair rule evaluations on Adult.
	if f := streamed.Stats.PrunedFraction(); f <= 0.5 {
		t.Errorf("pruned fraction %.3f ≤ 0.5 on the Adult workload at θ=0.05 (%d of %d class pairs evaluated)",
			f, streamed.Stats.RuleEvaluations, streamed.Stats.ClassPairs)
	}
}

// TestBlockDPMatchesIntersectionScan: over two published DP releases the
// one blocking loop labels every class pair as the exhaustive bin
// intersection scan does — Unknown where the bins share a value, NonMatch
// elsewhere, never Match — while the index still prunes, and a release
// on one side only is refused.
func TestBlockDPMatchesIntersectionScan(t *testing.T) {
	full := adult.Generate(1200, 13)
	alice, bob := dataset.SplitOverlap(full, rand.New(rand.NewSource(14)))
	qids, err := full.Schema().Resolve(adult.DefaultQIDs())
	if err != nil {
		t.Fatal(err)
	}
	rule, err := blocking.RuleFor(full.Schema(), qids, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	release := func(d *dataset.Dataset, seed int64) *anonymize.Result {
		b, err := dpblock.New(dpblock.Params{Epsilon: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		v, err := b.Anonymize(d, qids, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := dpblock.Publish(v, b.Params()); err != nil {
			t.Fatal(err)
		}
		return v
	}
	av, bv := release(alice, 5), release(bob, 6)
	res, err := index.Block(av, bv, rule)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchedPairs != 0 {
		t.Fatalf("DP blocking labeled %d record pairs Match", res.MatchedPairs)
	}
	var unknown int64
	for ri := range av.Classes {
		for si := range bv.Classes {
			want := blocking.NonMatch
			if index.SequencesIntersect(av.Classes[ri].Sequence, bv.Classes[si].Sequence) {
				want = blocking.Unknown
				unknown += int64(av.Classes[ri].Size()) * int64(bv.Classes[si].Size())
			}
			if got := res.Label(ri, si); got != want {
				t.Fatalf("class pair (%d,%d): labeled %v, the intersection scan says %v", ri, si, got, want)
			}
		}
	}
	if res.UnknownPairs != unknown || res.TotalPairs() != int64(alice.Len())*int64(bob.Len()) {
		t.Fatalf("pair accounting: %d unknown (scan %d) of %d", res.UnknownPairs, unknown, res.TotalPairs())
	}
	st := res.Stats
	if st.RuleEvaluations+st.PrunedClassPairs != st.ClassPairs || st.PrunedClassPairs == 0 {
		t.Fatalf("stats: %d evaluated + %d pruned of %d class pairs", st.RuleEvaluations, st.PrunedClassPairs, st.ClassPairs)
	}
	plain, err := anonymize.NewMaxEntropy().Anonymize(bob, qids, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := index.Block(av, plain, rule); err == nil {
		t.Fatal("Block accepted a DP release against a k-anonymous view")
	}
}

func TestUnconstrainedThresholdStillEquivalent(t *testing.T) {
	// θ ≥ 1 disables every Hamming attribute's postings; with θ = 1 on all
	// attributes the index admits everything and must still agree with the
	// dense scan.
	av, bv, _ := fixture(t, 600, 8, 0.05)
	full := adult.Generate(600, 13)
	qids, err := full.Schema().Resolve(adult.DefaultQIDs())
	if err != nil {
		t.Fatal(err)
	}
	rule, err := blocking.RuleFor(full.Schema(), qids, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := blocking.Block(av, bv, rule)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := index.Block(av, bv, rule)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, dense, streamed)
	// Euclidean attributes stay indexed even at θ = 1; only Hamming ones
	// drop out. The Adult QID set has one continuous attribute (age).
	indexed := 0
	for _, a := range streamed.Stats.Attrs {
		if a.Indexed {
			indexed++
		}
	}
	if indexed != 1 {
		t.Fatalf("indexed attributes at θ=1: got %d, want 1 (age only)", indexed)
	}
}

func TestProgressReported(t *testing.T) {
	av, bv, rule := fixture(t, 600, 4, 0.05)
	var last, total int64
	if _, err := index.Stream(av, bv, rule, func(done, tot int64) { last, total = done, tot }); err != nil {
		t.Fatal(err)
	}
	if last != int64(len(av.Classes)) || total != int64(len(av.Classes)) {
		t.Fatalf("final progress = %d/%d, want %d/%d", last, total, len(av.Classes), len(av.Classes))
	}
}

func TestValidationErrors(t *testing.T) {
	av, bv, rule := fixture(t, 600, 4, 0.05)
	metrics := make([]distance.Metric, rule.Len()+1)
	for i := range metrics {
		metrics[i] = distance.Hamming{}
	}
	wide, err := blocking.UniformRule(metrics, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := index.Block(av, bv, wide); err == nil {
		t.Error("Block accepted a rule with the wrong attribute count")
	}
	if _, err := index.NewLive(wide).Insert(bv.Classes[0].Sequence); err == nil {
		t.Error("Insert accepted a sequence of the wrong length")
	}
	// A categorical metric over a continuous attribute is a build error.
	catOnly := make([]distance.Metric, rule.Len())
	for i := range catOnly {
		catOnly[i] = distance.Hamming{}
	}
	catRule, err := blocking.UniformRule(catOnly, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := index.Block(av, bv, catRule); err == nil {
		t.Error("Block accepted Hamming over the continuous age attribute")
	}
}

// BenchmarkBlock is the blocking step as every pipeline runs it: index.Block
// over both halves of a 30,162-record Adult split, at the paper's k = 32
// and at k = 2, where the class-pair space is largest.
func BenchmarkBlock(b *testing.B) {
	full := adult.Generate(30162, 13)
	alice, bob := dataset.SplitOverlap(full, rand.New(rand.NewSource(14)))
	qids, err := full.Schema().Resolve(adult.DefaultQIDs())
	if err != nil {
		b.Fatal(err)
	}
	rule, err := blocking.RuleFor(full.Schema(), qids, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{32, 2} {
		av, err := anonymize.NewMaxEntropy().Anonymize(alice, qids, k)
		if err != nil {
			b.Fatal(err)
		}
		bv, err := anonymize.NewMaxEntropy().Anonymize(bob, qids, k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := index.Block(av, bv, rule); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(av.Classes)), "r-classes")
			b.ReportMetric(float64(len(bv.Classes)), "s-classes")
		})
	}
}
