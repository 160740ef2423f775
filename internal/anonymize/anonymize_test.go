package anonymize

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pprl/internal/adult"
	"pprl/internal/dataset"
	"pprl/internal/vgh"
)

func adultSample(t testing.TB, n int) (*dataset.Dataset, []int) {
	t.Helper()
	d := adult.Generate(n, 1234)
	qids, err := d.Schema().Resolve(adult.DefaultQIDs())
	if err != nil {
		t.Fatal(err)
	}
	return d, qids
}

func allAnonymizers() []Anonymizer {
	return []Anonymizer{NewMaxEntropy(), NewTDS(), NewDataFly(), NewMondrian()}
}

func TestAnonymizersSatisfyK(t *testing.T) {
	d, qids := adultSample(t, 400)
	for _, a := range allAnonymizers() {
		for _, k := range []int{2, 8, 32} {
			res, err := a.Anonymize(d, qids, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", a.Name(), k, err)
			}
			if err := res.Validate(d); err != nil {
				t.Errorf("%s k=%d: %v", a.Name(), k, err)
			}
			if min := res.MinClassSize(); min < k && res.NumSequences() > 1 {
				t.Errorf("%s k=%d: min class size %d", a.Name(), k, min)
			}
			if len(res.Suppressed) > k {
				t.Errorf("%s k=%d: %d suppressed records, want ≤ k", a.Name(), k, len(res.Suppressed))
			}
		}
	}
}

func TestK1IsIdentityForTopDown(t *testing.T) {
	// Paper Section III extreme scenario (1): k=1 means the anonymized
	// relation is (effectively) the original relation — every sequence
	// value is fully specific.
	d, qids := adultSample(t, 60)
	for _, a := range []Anonymizer{NewMaxEntropy(), NewDataFly()} {
		res, err := a.Anonymize(d, qids, 1)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		for i := 0; i < d.Len(); i++ {
			seq := res.SequenceOf(i)
			for j, q := range qids {
				if !seq[j].IsSpecific() {
					t.Fatalf("%s: record %d attr %s generalized to %v at k=1",
						a.Name(), i, d.Schema().Attr(q).Name, seq[j])
				}
			}
		}
	}
}

func TestKEqualsNIsRoot(t *testing.T) {
	// Extreme scenario (2): k=|R| forces (close to) the fully general
	// sequence; with k=n a single class must hold everyone.
	d, qids := adultSample(t, 50)
	for _, a := range allAnonymizers() {
		res, err := a.Anonymize(d, qids, d.Len())
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if res.NumSequences() != 1 {
			t.Errorf("%s: %d sequences at k=n, want 1", a.Name(), res.NumSequences())
		}
	}
}

func TestSequencesDecreaseWithK(t *testing.T) {
	d, qids := adultSample(t, 600)
	for _, a := range allAnonymizers() {
		loose, err := a.Anonymize(d, qids, 2)
		if err != nil {
			t.Fatal(err)
		}
		tight, err := a.Anonymize(d, qids, 64)
		if err != nil {
			t.Fatal(err)
		}
		if loose.NumSequences() < tight.NumSequences() {
			t.Errorf("%s: sequences k=2 (%d) < k=64 (%d); Figure 2 trend violated",
				a.Name(), loose.NumSequences(), tight.NumSequences())
		}
	}
}

func TestEntropyBeatsTDSAndDataFlyAtLowK(t *testing.T) {
	// The paper's Figure 2 claim: the max-entropy metric yields more
	// generalization sequences than DataFly and TDS for low k.
	d, qids := adultSample(t, 800)
	k := 8
	ent, _ := NewMaxEntropy().Anonymize(d, qids, k)
	tds, _ := NewTDS().Anonymize(d, qids, k)
	fly, _ := NewDataFly().Anonymize(d, qids, k)
	if ent.NumSequences() <= tds.NumSequences() {
		t.Errorf("Entropy (%d) should beat TDS (%d) at k=%d", ent.NumSequences(), tds.NumSequences(), k)
	}
	if ent.NumSequences() <= fly.NumSequences() {
		t.Errorf("Entropy (%d) should beat DataFly (%d) at k=%d", ent.NumSequences(), fly.NumSequences(), k)
	}
}

func TestTDSWithoutClassLabels(t *testing.T) {
	// With no class labels every split has zero information gain; TDS
	// performs no specialization at all (paper disadvantage (1)).
	d, qids := adultSample(t, 100)
	stripped := dataset.New(d.Schema())
	for _, r := range d.Records() {
		r.Class = ""
		stripped.MustAppend(r)
	}
	res, err := NewTDS().Anonymize(stripped, qids, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSequences() != 1 {
		t.Errorf("TDS without labels produced %d sequences, want 1 (no beneficial splits)", res.NumSequences())
	}
}

func TestInputValidation(t *testing.T) {
	d, qids := adultSample(t, 20)
	empty := dataset.New(d.Schema())
	for _, a := range allAnonymizers() {
		if _, err := a.Anonymize(empty, qids, 2); err == nil {
			t.Errorf("%s: empty dataset should fail", a.Name())
		}
		if _, err := a.Anonymize(d, nil, 2); err == nil {
			t.Errorf("%s: empty QIDs should fail", a.Name())
		}
		if _, err := a.Anonymize(d, []int{99}, 2); err == nil {
			t.Errorf("%s: out-of-range QID should fail", a.Name())
		}
		if _, err := a.Anonymize(d, qids, 0); err == nil {
			t.Errorf("%s: k=0 should fail", a.Name())
		}
		if _, err := a.Anonymize(d, qids, d.Len()+1); err == nil {
			t.Errorf("%s: k>n should fail", a.Name())
		}
	}
}

func TestResultAccessors(t *testing.T) {
	d, qids := adultSample(t, 120)
	res, err := NewMaxEntropy().Anonymize(d, qids, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "Entropy" || res.K != 8 {
		t.Errorf("metadata: %q k=%d", res.Method, res.K)
	}
	if res.AvgClassSize() < 8 {
		t.Errorf("AvgClassSize %v < k", res.AvgClassSize())
	}
	total := 0
	for _, c := range res.Classes {
		total += c.Size()
	}
	if total != d.Len() {
		t.Errorf("classes cover %d records, want %d", total, d.Len())
	}
}

func TestDeterminism(t *testing.T) {
	d, qids := adultSample(t, 300)
	for _, a := range allAnonymizers() {
		r1, err := a.Anonymize(d, qids, 16)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := a.Anonymize(d, qids, 16)
		if err != nil {
			t.Fatal(err)
		}
		if r1.NumSequences() != r2.NumSequences() {
			t.Fatalf("%s: nondeterministic sequence count", a.Name())
		}
		for i := range r1.Classes {
			if !r1.Classes[i].Sequence.Equal(r2.Classes[i].Sequence) {
				t.Fatalf("%s: class %d sequences differ between runs", a.Name(), i)
			}
		}
	}
}

// TestSplitScoreBitStable scores one split a thousand times and wants one
// bit pattern. With three or more children — or class labels — a sum taken
// in map order differs in the last ulp from run to run, and bestSplit's
// strict > then picks a different attribute on a tie: a different view, a
// different digest, a journal that refuses to resume.
func TestSplitScoreBitStable(t *testing.T) {
	src, qids := adultSample(t, 300)
	d := dataset.New(src.Schema())
	for i := 0; i < src.Len(); i++ {
		r := src.Record(i)
		r.Class = fmt.Sprintf("c%d", i*i%7)
		d.MustAppend(r)
	}
	p := &partition{seq: rootSequence(d.Schema(), qids), members: allRecords(d)}
	r := newRun(d, qids)
	wide := 0 // splits into three or more children; TDS sums seven labels on any split
	for _, a := range []Anonymizer{NewMaxEntropy(), NewTDS()} {
		td := a.(*topDown)
		for j := range qids {
			var first uint64
			for run := 0; run < 1000; run++ {
				s := td.specialize(r, p, j, nil)
				if s == nil {
					break
				}
				score, _ := td.score(d, p, s)
				if run == 0 {
					first = math.Float64bits(score)
					if len(s.counts) >= 3 {
						wide++
					}
				} else if bits := math.Float64bits(score); bits != first {
					t.Fatalf("%s attribute %d: run %d scored %x, run 0 scored %x", td.name, j, run, bits, first)
				}
			}
		}
	}
	if wide == 0 {
		t.Fatal("no split had three or more children: the test would prove little")
	}
}

// Property: on random small datasets over a toy schema, every algorithm
// produces a structurally valid k-anonymous result (generalization
// accuracy — the Covers invariant — included).
func TestAnonymizersValidProperty(t *testing.T) {
	edu := vgh.MustParse("edu", `ANY
  Low
    a
    b
  High
    c
    d
`)
	ih := vgh.MustIntervalHierarchy("num", 0, 32, 2, 2)
	schema := dataset.MustSchema(dataset.CatAttr(edu), dataset.NumAttr(ih))
	leaves := []string{"a", "b", "c", "d"}
	classes := []string{"x", "y"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		d := dataset.New(schema)
		for i := 0; i < n; i++ {
			d.MustAppend(dataset.Record{
				EntityID: i,
				Cells: []dataset.Cell{
					dataset.CatCell(edu, leaves[rng.Intn(len(leaves))]),
					dataset.NumCell(float64(rng.Intn(32))),
				},
				Class: classes[rng.Intn(2)],
			})
		}
		k := 1 + rng.Intn(5)
		for _, a := range allAnonymizers() {
			res, err := a.Anonymize(d, []int{0, 1}, k)
			if err != nil {
				t.Logf("%s: %v", a.Name(), err)
				return false
			}
			if err := res.Validate(d); err != nil {
				t.Logf("%s seed=%d k=%d: %v", a.Name(), seed, k, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
