package index

import (
	"testing"

	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/distance"
	"pprl/internal/vgh"
)

// fuzzReader doles out fuzz bytes, returning zeros once exhausted so
// every input decodes to some valid world.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *fuzzReader) intn(n int) int { return int(r.byte()) % n }

// fuzzHierarchies are the three shapes the generator draws attributes
// from: a two-level categorical taxonomy, an integer interval hierarchy,
// and a string prefix hierarchy. Built once; node pointers must be
// shared by both views, exactly as a shared schema guarantees in
// production.
var (
	fuzzTaxonomy = func() *vgh.Hierarchy {
		b := vgh.NewBuilder("cat", "ANY")
		for g := 0; g < 3; g++ {
			gname := string(rune('A' + g))
			b.Add("ANY", gname)
			for l := 0; l < 3; l++ {
				b.Add(gname, gname+string(rune('0'+l)))
			}
		}
		return b.MustBuild()
	}()
	fuzzIntervals = vgh.MustIntervalHierarchy("num", 0, 32, 2, 3)
	fuzzPrefixes  = func() *vgh.Hierarchy {
		values := []string{"aaa", "aab", "aba", "abb", "baa", "bab", "bba", "bbb"}
		h, err := vgh.PrefixHierarchy("str", values, 1, 2)
		if err != nil {
			panic(err)
		}
		return h
	}()
)

// fuzzValue draws one generalized value for attribute shape s: a leaf
// lifted to a fuzz-chosen depth (categorical) or an interval at a
// fuzz-chosen level, sometimes a bare point (continuous).
func fuzzValue(r *fuzzReader, shape int) vgh.Value {
	switch shape {
	case 1:
		if r.intn(5) == 0 {
			return vgh.NumValue(vgh.Point(float64(r.intn(32))))
		}
		v := float64(r.intn(32))
		level := r.intn(fuzzIntervals.Depth() + 1)
		return vgh.NumValue(fuzzIntervals.At(v, level))
	case 2:
		leaf := fuzzPrefixes.Leaf(r.intn(fuzzPrefixes.NumLeaves()))
		return vgh.CatValue(fuzzPrefixes.GeneralizeToDepth(leaf, r.intn(fuzzPrefixes.Height()+1)))
	default:
		leaf := fuzzTaxonomy.Leaf(r.intn(fuzzTaxonomy.NumLeaves()))
		return vgh.CatValue(fuzzTaxonomy.GeneralizeToDepth(leaf, r.intn(fuzzTaxonomy.Height()+1)))
	}
}

// fuzzView synthesizes an anonymized view: classes of 1–3 records with
// fuzz-drawn generalization sequences over the given attribute shapes.
func fuzzView(r *fuzzReader, shapes []int) *anonymize.Result {
	qids := make([]int, len(shapes))
	for i := range qids {
		qids[i] = i
	}
	res := &anonymize.Result{Method: "fuzz", K: 1, QIDs: qids}
	classes := 1 + r.intn(8)
	rec := 0
	for c := 0; c < classes; c++ {
		seq := make(vgh.Sequence, len(shapes))
		for a, s := range shapes {
			seq[a] = fuzzValue(r, s)
		}
		size := 1 + r.intn(3)
		members := make([]int, size)
		for m := range members {
			members[m] = rec
			rec++
		}
		res.Classes = append(res.Classes, anonymize.Class{Sequence: seq, Members: members})
	}
	return res
}

// intersectScan is the exhaustive DP blocking loop Block replaced, kept
// as the reference: every class pair is Unknown when the two bins share a
// value on every attribute and NonMatch otherwise.
func intersectScan(r, s *anonymize.Result) *blocking.Result {
	b := blocking.NewBuilder(r, s)
	for ri := range r.Classes {
		for si := range s.Classes {
			l := blocking.NonMatch
			if SequencesIntersect(r.Classes[ri].Sequence, s.Classes[si].Sequence) {
				l = blocking.Unknown
			}
			b.Observe(ri, si, l)
		}
	}
	return b.Result(nil)
}

// release attaches a DP release to a copy of v: the noised counts are the
// class sizes, all Block checks of a release.
func release(v *anonymize.Result) *anonymize.Result {
	dp := *v
	dp.DP = &anonymize.DPInfo{Epsilon: 1, NoisedCounts: make([]int64, len(v.Classes))}
	for i := range v.Classes {
		dp.DP.NoisedCounts[i] = int64(v.Classes[i].Size())
	}
	return &dp
}

// sameLabels fails unless got, the indexed result, carries want's counts
// and labels for every class pair, and its stats add up.
func sameLabels(t *testing.T, arm string, want, got *blocking.Result) {
	t.Helper()
	if want.MatchedPairs != got.MatchedPairs ||
		want.NonMatchedPairs != got.NonMatchedPairs ||
		want.UnknownPairs != got.UnknownPairs ||
		want.UnknownGroups != got.UnknownGroups {
		t.Fatalf("%s: counts diverge: reference M/N/U/UG %d/%d/%d/%d, indexed %d/%d/%d/%d", arm,
			want.MatchedPairs, want.NonMatchedPairs, want.UnknownPairs, want.UnknownGroups,
			got.MatchedPairs, got.NonMatchedPairs, got.UnknownPairs, got.UnknownGroups)
	}
	for ri := range want.R.Classes {
		for si := range want.S.Classes {
			w, x := want.Label(ri, si), got.Label(ri, si)
			if w != x {
				t.Fatalf("%s: class pair (%d,%d) %q × %q: reference %v, indexed %v", arm,
					ri, si, want.R.Classes[ri].Sequence, want.S.Classes[si].Sequence, w, x)
			}
		}
	}
	if st := got.Stats; st.RuleEvaluations+st.PrunedClassPairs != st.ClassPairs {
		t.Fatalf("%s: %d evaluated + %d pruned != %d class pairs", arm, st.RuleEvaluations, st.PrunedClassPairs, st.ClassPairs)
	}
}

// FuzzIndexPrune is the index soundness fuzzer: for arbitrary worlds —
// every hierarchy shape, arbitrary generalization levels, arbitrary
// per-attribute thresholds including θ ≥ 1 — the indexed engine must
// label every class pair exactly as the dense scan does, and, with both
// views carrying a DP release, exactly as the exhaustive intersection
// scan does. Any divergence means the index pruned a Match or Unknown
// pair, the one failure mode the whole subsystem exists to rule out.
func FuzzIndexPrune(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 1, 2, 7, 3, 1, 200, 5, 9, 31, 16, 1, 1, 2, 3})
	f.Add([]byte{1, 1, 255, 255, 4, 4, 4, 4, 8, 8, 8, 8, 100, 50, 25, 12})
	f.Add([]byte{2, 2, 2, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		nattrs := 1 + r.intn(3)
		shapes := make([]int, nattrs)
		metrics := make([]distance.Metric, nattrs)
		thresholds := make([]float64, nattrs)
		for a := range shapes {
			shapes[a] = r.intn(3)
			if shapes[a] == 1 {
				metrics[a] = distance.Euclidean{Norm: fuzzIntervals.Range()}
			} else {
				metrics[a] = distance.Hamming{}
			}
			// 1/8 of thresholds land at 1.0, the unconstrained edge.
			if r.intn(8) == 0 {
				thresholds[a] = 1.0
			} else {
				thresholds[a] = float64(1+r.intn(100)) / 100
			}
		}
		rule, err := blocking.NewRule(metrics, thresholds)
		if err != nil {
			t.Fatalf("rule: %v", err)
		}
		rView := fuzzView(r, shapes)
		sView := fuzzView(r, shapes)

		dense, err := blocking.Block(rView, sView, rule)
		if err != nil {
			t.Fatalf("dense: %v", err)
		}
		indexed, err := Block(rView, sView, rule)
		if err != nil {
			t.Fatalf("indexed: %v", err)
		}
		sameLabels(t, "slack rule", dense, indexed)

		rDP, sDP := release(rView), release(sView)
		dp, err := Block(rDP, sDP, rule)
		if err != nil {
			t.Fatalf("indexed DP: %v", err)
		}
		sameLabels(t, "DP", intersectScan(rDP, sDP), dp)
	})
}
