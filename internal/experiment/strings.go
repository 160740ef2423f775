package experiment

import (
	"fmt"
	"math/rand"

	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/dataset"
	"pprl/internal/distance"
	"pprl/internal/heuristic"
	"pprl/internal/index"
	"pprl/internal/names"
)

// Strings is the extension experiment for the paper's Section VIII future
// work: private linkage over alphanumeric attributes. One relation's
// surnames are corrupted with near-miss misspellings at increasing rates;
// the table compares the edit-distance rule (with prefix-hierarchy
// blocking, θ_edit = 0.25) against the exact-equality baseline, both
// under a 2% SMC budget resolved by the exact-rule oracle (the secure
// circuit for edit distance is the open problem the paper defers).
// Recall is measured against the edit rule's ground truth, so the
// baseline's inability to see through typos shows up directly.
func Strings(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	schema := names.Schema()
	population := names.Generate(schema, stringWorkloadSize(opts), opts.Seed)
	alice, bobClean := dataset.SplitOverlap(population, rand.New(rand.NewSource(opts.Seed+1)))

	metrics, thresholds, qids, err := names.Rule(schema, 0.25, 0.05)
	if err != nil {
		return nil, err
	}
	editRule, err := blocking.NewRule(metrics, thresholds)
	if err != nil {
		return nil, err
	}
	exactMetrics := []distance.Metric{distance.Hamming{}, metrics[1], metrics[2]}
	exactRule, err := blocking.NewRule(exactMetrics, thresholds)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "strings",
		Title:   "Edit-distance extension: recall vs. surname corruption rate (2% budget)",
		Columns: []string{"corruption", "edit rule", "exact-equality baseline"},
	}
	for _, rate := range []float64{0, 0.1, 0.3, 0.5} {
		bob := names.Corrupt(bobClean, rate, opts.Seed+2)
		truth := stringTruth(alice, bob, qids, editRule)
		if len(truth) == 0 {
			return nil, fmt.Errorf("strings: empty ground truth at rate %v", rate)
		}
		editRec, err := stringRecall(alice, bob, qids, editRule, truth)
		if err != nil {
			return nil, fmt.Errorf("strings: rate %v: %w", rate, err)
		}
		exactRec, err := stringRecall(alice, bob, qids, exactRule, truth)
		if err != nil {
			return nil, fmt.Errorf("strings: rate %v: %w", rate, err)
		}
		t.AddRow(pct(rate), pct(editRec), pct(exactRec))
	}
	return t, nil
}

// stringWorkloadSize caps the string-extension workload: the surname
// dictionary has only ~80 spellings, so beyond a few thousand records a
// larger sample adds duplicates, not signal — and ground truth for the
// edit rule needs a full pairwise scan.
func stringWorkloadSize(opts Options) int {
	n := opts.Records / 3 * 2
	if n > 4000 {
		n = 4000
	}
	return n
}

// stringTruth enumerates the truly matching pairs under the rule (the
// edit rule has no hash-joinable equality attribute, so this is a full
// scan over the modest string workload).
func stringTruth(alice, bob *dataset.Dataset, qids []int, rule *blocking.Rule) map[[2]int]bool {
	truth := make(map[[2]int]bool)
	for i := 0; i < alice.Len(); i++ {
		a := blocking.RecordSequence(alice, qids, i)
		for j := 0; j < bob.Len(); j++ {
			if rule.DecideExact(a, blocking.RecordSequence(bob, qids, j)) {
				truth[[2]int{i, j}] = true
			}
		}
	}
	return truth
}

// stringRecall runs anonymize → block → ordered budget resolution with
// the exact-rule oracle and scores against the supplied truth.
func stringRecall(alice, bob *dataset.Dataset, qids []int, rule *blocking.Rule, truth map[[2]int]bool) (float64, error) {
	anon := anonymize.NewMaxEntropy()
	aView, err := anon.Anonymize(alice, qids, 8)
	if err != nil {
		return 0, err
	}
	bView, err := anon.Anonymize(bob, qids, 8)
	if err != nil {
		return 0, err
	}
	block, err := index.Block(aView, bView, rule)
	if err != nil {
		return 0, err
	}
	matched := 0
	block.EachLabeled(func(ri, si int, l blocking.Label) {
		if l != blocking.Match {
			return
		}
		for _, i := range aView.Classes[ri].Members {
			for _, j := range bView.Classes[si].Members {
				if truth[[2]int{i, j}] {
					matched++
				}
			}
		}
	})
	budget := int64(0.02 * float64(block.TotalPairs()))
	ordered := heuristic.Order(block, rule, heuristic.MinAvgFirst{}, false)
groups:
	for _, gp := range ordered {
		for _, i := range aView.Classes[gp.RI].Members {
			a := blocking.RecordSequence(alice, qids, i)
			for _, j := range bView.Classes[gp.SI].Members {
				if budget <= 0 {
					break groups
				}
				budget--
				if rule.DecideExact(a, blocking.RecordSequence(bob, qids, j)) && truth[[2]int{i, j}] {
					matched++
				}
			}
		}
	}
	return float64(matched) / float64(len(truth)), nil
}
