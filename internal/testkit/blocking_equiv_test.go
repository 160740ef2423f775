package testkit

import (
	"testing"

	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/distance"
	"pprl/internal/index"
)

// blockWorldViews anonymizes a world's relations with its own
// anonymizers and returns the two views plus the world's rule, the
// exact inputs both blocking engines must agree on.
func blockWorldViews(t *testing.T, w *World) (*anonymize.Result, *anonymize.Result, *blocking.Rule) {
	t.Helper()
	schema := w.Alice.Schema()
	qids, err := schema.Resolve(w.Cfg.QIDs)
	if err != nil {
		t.Fatal(repro(t, w, err))
	}
	var rule *blocking.Rule
	if w.Cfg.Thresholds != nil {
		rule, err = blocking.NewRule(distance.MetricsFor(schema, qids), w.Cfg.Thresholds)
	} else {
		rule, err = blocking.RuleFor(schema, qids, w.Cfg.Theta)
	}
	if err != nil {
		t.Fatal(repro(t, w, err))
	}
	aView, err := w.Cfg.AliceAnonymizer.Anonymize(w.Alice, qids, w.Cfg.AliceK)
	if err != nil {
		t.Fatal(repro(t, w, err))
	}
	bView, err := w.Cfg.BobAnonymizer.Anonymize(w.Bob, qids, w.Cfg.BobK)
	if err != nil {
		t.Fatal(repro(t, w, err))
	}
	return aView, bView, rule
}

// TestIndexedBlockingMatchesDenseOnWorlds is the indexed-engine property
// harness: across generated worlds — every hierarchy shape (categorical
// taxonomy, continuous interval, string prefix), every anonymizer, both
// uniform and per-attribute thresholds including the degenerate θ = 1 —
// the hierarchy index must reproduce the dense scan exactly: same label
// for every class pair (so no Match or Unknown pair is ever pruned), same
// counts, same unknown-pair order, and stats whose evaluated and pruned
// class pairs add up.
func TestIndexedBlockingMatchesDenseOnWorlds(t *testing.T) {
	base := baseSeed(t)
	n := worldCount(t)
	pruning := 0
	for wi := 0; wi < n; wi++ {
		w := Generate(base + int64(wi))
		aView, bView, rule := blockWorldViews(t, w)

		dense, err := blocking.Block(aView, bView, rule)
		if err != nil {
			t.Fatal(repro(t, w, err))
		}

		indexed, err := index.Block(aView, bView, rule)
		if err != nil {
			t.Fatal(repro(t, w, err))
		}

		if dense.MatchedPairs != indexed.MatchedPairs ||
			dense.NonMatchedPairs != indexed.NonMatchedPairs ||
			dense.UnknownPairs != indexed.UnknownPairs ||
			dense.UnknownGroups != indexed.UnknownGroups {
			t.Fatalf("world %s: counts diverge: dense M/N/U/UG %d/%d/%d/%d, indexed %d/%d/%d/%d",
				w.Describe(), dense.MatchedPairs, dense.NonMatchedPairs, dense.UnknownPairs, dense.UnknownGroups,
				indexed.MatchedPairs, indexed.NonMatchedPairs, indexed.UnknownPairs, indexed.UnknownGroups)
		}
		for ri := range dense.R.Classes {
			for si := range dense.S.Classes {
				if d, x := dense.Label(ri, si), indexed.Label(ri, si); d != x {
					t.Fatalf("world %s: class pair (%d,%d) labeled %v dense, %v indexed",
						w.Describe(), ri, si, d, x)
				}
			}
		}
		du, iu := dense.UnknownGroupPairs(), indexed.UnknownGroupPairs()
		if len(du) != len(iu) {
			t.Fatalf("world %s: %d unknown group pairs dense, %d indexed", w.Describe(), len(du), len(iu))
		}
		for i := range du {
			if du[i].RI != iu[i].RI || du[i].SI != iu[i].SI || du[i].Pairs != iu[i].Pairs {
				t.Fatalf("world %s: unknown pair %d diverges: dense %+v, indexed %+v",
					w.Describe(), i, du[i], iu[i])
			}
		}

		st := indexed.Stats
		if st == nil {
			t.Fatalf("world %s: indexed result carries no stats", w.Describe())
		}
		if st.RuleEvaluations+st.PrunedClassPairs != st.ClassPairs {
			t.Fatalf("world %s: stats don't add up: %d evaluated + %d pruned != %d class pairs",
				w.Describe(), st.RuleEvaluations, st.PrunedClassPairs, st.ClassPairs)
		}
		if st.PrunedClassPairs > 0 {
			pruning++
		}
	}
	if pruning == 0 {
		t.Error("no world pruned a single class pair; the equivalence check never exercised the index (non-vacuous run required)")
	}
}
