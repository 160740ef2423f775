package blocking

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pprl/internal/anonymize"
	"pprl/internal/dataset"
	"pprl/internal/distance"
	"pprl/internal/vgh"
)

// educationFig1 is the Education VGH of the paper's Figure 1.
func educationFig1(t testing.TB) *vgh.Hierarchy {
	t.Helper()
	return vgh.MustParse("education", `ANY
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
`)
}

// paperViews constructs Tables I and II of the paper: relations R and S
// with their 3-anonymous and 2-anonymous generalizations R' and S'. The
// generalizations are handcrafted exactly as printed (the WorkHrs VGH of
// Figure 1 is irregular, so we do not rerun an anonymizer here).
func paperViews(t testing.TB) (r, s *anonymize.Result, rule *Rule, rRecords, sRecords []vgh.Sequence) {
	t.Helper()
	edu := educationFig1(t)
	cat := func(name string) vgh.Value { return vgh.CatValue(edu.MustLookup(name)) }
	num := func(lo, hi float64) vgh.Value { return vgh.NumValue(vgh.Interval{Lo: lo, Hi: hi}) }
	pt := func(v float64) vgh.Value { return vgh.NumValue(vgh.Point(v)) }

	// Original records (Education, WorkHrs).
	rRecords = []vgh.Sequence{
		{cat("Masters"), pt(35)}, {cat("Masters"), pt(36)}, {cat("Masters"), pt(36)},
		{cat("9th"), pt(28)}, {cat("10th"), pt(22)}, {cat("12th"), pt(33)},
	}
	sRecords = []vgh.Sequence{
		{cat("Masters"), pt(36)}, {cat("Masters"), pt(35)}, {cat("Bachelors"), pt(27)},
		{cat("11th"), pt(33)}, {cat("11th"), pt(22)}, {cat("12th"), pt(27)},
	}

	r = &anonymize.Result{
		Method: "paper", K: 3, QIDs: []int{0, 1},
		Classes: []anonymize.Class{
			{Sequence: vgh.Sequence{cat("Masters"), num(35, 37)}, Members: []int{0, 1, 2}},
			{Sequence: vgh.Sequence{cat("Secondary"), num(1, 35)}, Members: []int{3, 4, 5}},
		},
		ClassOf: []int{0, 0, 0, 1, 1, 1},
	}
	s = &anonymize.Result{
		Method: "paper", K: 2, QIDs: []int{0, 1},
		Classes: []anonymize.Class{
			{Sequence: vgh.Sequence{cat("Masters"), num(35, 37)}, Members: []int{0, 1}},
			{Sequence: vgh.Sequence{cat("ANY"), num(1, 35)}, Members: []int{2, 3}},
			{Sequence: vgh.Sequence{cat("Senior Sec."), num(1, 35)}, Members: []int{4, 5}},
		},
		ClassOf: []int{0, 0, 1, 1, 2, 2},
	}

	// θ1 = 0.5 Hamming on education, θ2 = 0.2 Euclidean with
	// normFactor 98 (the WorkHrs range [1,99)).
	var err error
	rule, err = NewRule(
		[]distance.Metric{distance.Hamming{}, distance.Euclidean{Norm: 98}},
		[]float64{0.5, 0.2},
	)
	if err != nil {
		t.Fatal(err)
	}
	return r, s, rule, rRecords, sRecords
}

// TestPaperWorkedExample reproduces the Section III walkthrough: of the 36
// record pairs, 12 are mismatched and 6 matched through the anonymized
// relations, leaving 18 unknown — a blocking efficiency of 50%.
func TestPaperWorkedExample(t *testing.T) {
	r, s, rule, _, _ := paperViews(t)
	res, err := Block(r, s, rule)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchedPairs != 6 {
		t.Errorf("matched pairs = %d, want 6", res.MatchedPairs)
	}
	if res.NonMatchedPairs != 12 {
		t.Errorf("mismatched pairs = %d, want 12", res.NonMatchedPairs)
	}
	if res.UnknownPairs != 18 {
		t.Errorf("unknown pairs = %d, want 18", res.UnknownPairs)
	}
	if got := res.Efficiency(); got != 0.5 {
		t.Errorf("blocking efficiency = %v, want 0.5", got)
	}
	if got := res.TotalPairs(); got != 36 {
		t.Errorf("total pairs = %d, want 36", got)
	}
	// Individual labels from the walkthrough.
	want := [][]Label{
		// S classes: (Masters,[35-37)), (ANY,[1-35)), (Senior Sec.,[1-35))
		{Match, Unknown, NonMatch},   // R class (Masters,[35-37))
		{NonMatch, Unknown, Unknown}, // R class (Secondary,[1-35))
	}
	for ri := range want {
		for si := range want[ri] {
			if got := res.Label(ri, si); got != want[ri][si] {
				t.Errorf("Label(%d, %d) = %v, want %v", ri, si, got, want[ri][si])
			}
		}
	}
	ups := res.UnknownGroupPairs()
	totalU := 0
	for _, g := range ups {
		totalU += g.Pairs
	}
	if len(ups) != 3 || totalU != 18 {
		t.Errorf("unknown group pairs = %d covering %d record pairs, want 3 covering 18", len(ups), totalU)
	}
	if res.UnknownGroups != int64(len(ups)) {
		t.Errorf("UnknownGroups = %d, want %d", res.UnknownGroups, len(ups))
	}
	if cap(ups) != len(ups) {
		t.Errorf("UnknownGroupPairs cap = %d, want exact %d", cap(ups), len(ups))
	}
}

// TestBlockingSound verifies against ground truth that no blocked label is
// wrong in the worked example — the 100%-precision invariant.
func TestBlockingSound(t *testing.T) {
	r, s, rule, rRecs, sRecs := paperViews(t)
	res, err := Block(r, s, rule)
	if err != nil {
		t.Fatal(err)
	}
	for ri, rc := range r.Classes {
		for si, sc := range s.Classes {
			for _, i := range rc.Members {
				for _, j := range sc.Members {
					truth := rule.DecideExact(rRecs[i], sRecs[j])
					switch res.Label(ri, si) {
					case Match:
						if !truth {
							t.Errorf("pair (r%d,s%d) labeled M but does not match", i+1, j+1)
						}
					case NonMatch:
						if truth {
							t.Errorf("pair (r%d,s%d) labeled N but matches", i+1, j+1)
						}
					}
				}
			}
		}
	}
}

func TestRuleValidation(t *testing.T) {
	if _, err := NewRule(nil, nil); err == nil {
		t.Error("empty rule should fail")
	}
	if _, err := NewRule([]distance.Metric{distance.Hamming{}}, []float64{0.1, 0.2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := NewRule([]distance.Metric{distance.Hamming{}}, []float64{-0.1}); err == nil {
		t.Error("negative threshold should fail")
	}
	r, err := UniformRule([]distance.Metric{distance.Hamming{}, distance.Hamming{}}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.Threshold(0) != 0.05 || r.Threshold(1) != 0.05 {
		t.Error("UniformRule misconfigured")
	}
	if r.Metric(0).Name() != "hamming" {
		t.Error("Metric accessor broken")
	}
}

func TestBlockMismatchedViews(t *testing.T) {
	r, s, rule, _, _ := paperViews(t)
	bad := &anonymize.Result{QIDs: []int{0}}
	if _, err := Block(bad, s, rule); err == nil {
		t.Error("QID arity mismatch should fail")
	}
	bad2 := &anonymize.Result{QIDs: []int{0, 2}}
	if _, err := Block(r, bad2, rule); err == nil {
		t.Error("QID identity mismatch should fail")
	}
	_ = s
}

func TestExpectedDistances(t *testing.T) {
	r, s, rule, _, _ := paperViews(t)
	buf := rule.ExpectedDistances(r.Classes[0].Sequence, s.Classes[1].Sequence, nil)
	if len(buf) != 2 {
		t.Fatalf("ExpectedDistances len = %d", len(buf))
	}
	// Masters vs ANY over 7 leaves: 1 - 1/7.
	if want := 1 - 1.0/7; buf[0] < want-1e-9 || buf[0] > want+1e-9 {
		t.Errorf("expected Hamming = %v, want %v", buf[0], want)
	}
	// Reuse the buffer.
	buf2 := rule.ExpectedDistances(r.Classes[0].Sequence, s.Classes[0].Sequence, buf)
	if &buf2[0] != &buf[0] {
		t.Error("ExpectedDistances should reuse a large-enough buffer")
	}
}

// End-to-end soundness property: anonymize random data with the paper's
// method, block, and verify every M/N label against the exact rule. This
// is the theorem behind "precision is always 100%".
func TestBlockingSoundnessProperty(t *testing.T) {
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
	anonymizers := []anonymize.Anonymizer{
		anonymize.NewMaxEntropy(),
		anonymize.NewDataFly(), // exercises the suppression path
		anonymize.NewMondrian(),
		anonymize.NewTDS(),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		anon := anonymizers[rng.Intn(len(anonymizers))]
		mk := func(n int) *dataset.Dataset {
			d := dataset.New(schema)
			for i := 0; i < n; i++ {
				d.MustAppend(dataset.Record{
					EntityID: i,
					Cells: []dataset.Cell{
						dataset.CatCell(edu, leaves[rng.Intn(4)]),
						dataset.NumCell(float64(rng.Intn(32))),
					},
				})
			}
			return d
		}
		dR, dS := mk(12+rng.Intn(20)), mk(12+rng.Intn(20))
		k := 1 + rng.Intn(4)
		qids := []int{0, 1}
		ar, err := anon.Anonymize(dR, qids, k)
		if err != nil {
			return false
		}
		as, err := anon.Anonymize(dS, qids, k)
		if err != nil {
			return false
		}
		theta := rng.Float64() * 0.5
		rule, err := RuleFor(schema, qids, theta)
		if err != nil {
			return false
		}
		res, err := Block(ar, as, rule)
		if err != nil {
			return false
		}
		for ri, rc := range ar.Classes {
			for si, sc := range as.Classes {
				l := res.Label(ri, si)
				if l == Unknown {
					continue
				}
				for _, i := range rc.Members {
					for _, j := range sc.Members {
						truth := rule.DecideExact(
							RecordSequence(dR, qids, i),
							RecordSequence(dS, qids, j),
						)
						if (l == Match) != truth {
							t.Logf("seed=%d k=%d θ=%v: label %v wrong for records %d,%d", seed, k, theta, l, i, j)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
