package dpblock

import (
	"math/rand"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/blocking"
	"pprl/internal/dataset"
	"pprl/internal/index"
)

func testQIDs(t *testing.T, d *dataset.Dataset) []int {
	t.Helper()
	qids, err := d.Schema().Resolve(adult.TopQIDs(4))
	if err != nil {
		t.Fatal(err)
	}
	return qids
}

func testViews(t *testing.T, n int, seed int64) (alice, bob *dataset.Dataset, qids []int, rule *blocking.Rule) {
	t.Helper()
	full := adult.Generate(n, seed)
	alice, bob = dataset.SplitOverlap(full, rand.New(rand.NewSource(seed+1)))
	qids = testQIDs(t, full)
	rule, err := blocking.RuleFor(full.Schema(), qids, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return alice, bob, qids, rule
}

func TestParamsValidate(t *testing.T) {
	cases := []Params{
		{Epsilon: 0},
		{Epsilon: -1},
		{Epsilon: 1, Delta: 0.7},
		{Epsilon: 1, Delta: -0.1},
		{Epsilon: 1, Level: -2},
	}
	for _, p := range cases {
		if _, err := New(p); err == nil {
			t.Errorf("New(%+v): want error", p)
		}
	}
	if _, err := New(Params{Epsilon: 0.5}); err != nil {
		t.Fatalf("New with defaults: %v", err)
	}
}

func TestBinnerDeterministicAndValid(t *testing.T) {
	d := adult.Generate(300, 7)
	qids := testQIDs(t, d)
	b, err := New(Params{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Anonymize(d, qids, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Bins are accurate generalizations of every record; K is 1 so the
	// class-size invariant is vacuous but coverage is not.
	if err := res.Validate(d); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if res.Method != MethodName || res.K != 1 {
		t.Fatalf("got method=%q k=%d", res.Method, res.K)
	}
	again, err := b.Anonymize(d, qids, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Classes) != len(res.Classes) {
		t.Fatalf("non-deterministic binning: %d vs %d classes", len(again.Classes), len(res.Classes))
	}
	for i := range res.Classes {
		if res.Classes[i].Sequence.Key() != again.Classes[i].Sequence.Key() {
			t.Fatalf("class %d key differs between runs", i)
		}
	}
}

func TestPublishPadsNeverDrops(t *testing.T) {
	d := adult.Generate(300, 7)
	qids := testQIDs(t, d)
	b, _ := New(Params{Epsilon: 0.5, Seed: 11})
	res, err := b.Anonymize(d, qids, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Publish(res, b.Params()); err != nil {
		t.Fatal(err)
	}
	if res.DP == nil || len(res.DP.NoisedCounts) != len(res.Classes) {
		t.Fatal("Publish did not attach noised counts")
	}
	for i, c := range res.Classes {
		if res.DP.NoisedCounts[i] < int64(c.Size()) {
			t.Fatalf("bin %d: noised count %d below true size %d", i, res.DP.NoisedCounts[i], c.Size())
		}
	}
	// Determinism: republishing draws identical noise.
	res2, _ := b.Anonymize(d, qids, 1)
	if err := Publish(res2, b.Params()); err != nil {
		t.Fatal(err)
	}
	for i := range res.DP.NoisedCounts {
		if res.DP.NoisedCounts[i] != res2.DP.NoisedCounts[i] {
			t.Fatalf("bin %d: noise differs across identical publishes", i)
		}
	}
	// A different seed draws different noise somewhere (overwhelmingly
	// likely across hundreds of bins; a fixed seed keeps this stable).
	p := b.Params()
	p.Seed = 12
	res3, _ := b.Anonymize(d, qids, 1)
	if err := Publish(res3, p); err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range res.DP.NoisedCounts {
		if res.DP.NoisedCounts[i] != res3.DP.NoisedCounts[i] {
			same = false
			break
		}
	}
	if same && len(res.Classes) > 3 {
		t.Fatal("distinct seeds drew identical noise for every bin")
	}
}

func TestBlockIntersection(t *testing.T) {
	alice, bob, qids, rule := testViews(t, 400, 3)
	b, _ := New(Params{Epsilon: 1, Seed: 5})
	aView, err := b.Anonymize(alice, qids, 1)
	if err != nil {
		t.Fatal(err)
	}
	bView, err := b.Anonymize(bob, qids, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Publish(aView, b.Params()); err != nil {
		t.Fatal(err)
	}
	if _, err := index.Block(aView, bView, rule); err == nil {
		t.Fatal("Block accepted a DP release against an un-published view")
	}
	p := b.Params()
	p.Seed = 6
	if err := Publish(bView, p); err != nil {
		t.Fatal(err)
	}
	res, err := index.Block(aView, bView, rule)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchedPairs != 0 {
		t.Fatalf("DP blocking labeled %d pairs Match; must label none", res.MatchedPairs)
	}
	if st := res.Stats; st.RuleEvaluations+st.PrunedClassPairs != st.ClassPairs || st.PrunedClassPairs == 0 {
		t.Fatalf("DP blocking stats: %d evaluated + %d pruned of %d class pairs", st.RuleEvaluations, st.PrunedClassPairs, st.ClassPairs)
	}
	total := int64(alice.Len()) * int64(bob.Len())
	if got := res.TotalPairs(); got != total {
		t.Fatalf("pair accounting: %d labeled of %d total", got, total)
	}
	// Intersection must label exactly the same-bin pairs Unknown: verify
	// per record pair against the bins themselves.
	for i := 0; i < alice.Len(); i += 37 {
		for j := 0; j < bob.Len(); j += 41 {
			ri, si := aView.ClassOf[i], bView.ClassOf[j]
			want := blocking.NonMatch
			if index.SequencesIntersect(aView.Classes[ri].Sequence, bView.Classes[si].Sequence) {
				want = blocking.Unknown
			}
			if got := res.Label(ri, si); got != want {
				t.Fatalf("pair (%d,%d) labeled %v, want %v", i, j, got, want)
			}
		}
	}
}
