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
	"pprl/internal/match"
	"pprl/internal/metrics"
	"pprl/internal/names"
	"pprl/internal/oracle"
	"pprl/internal/resolve"
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

	qids, editRule, exactRule, err := StringRules(schema)
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
		truth, err := match.TruePairs(alice, bob, qids, editRule)
		if err != nil {
			return nil, err
		}
		if len(truth) == 0 {
			return nil, fmt.Errorf("strings: empty ground truth at rate %v", rate)
		}
		_, edit, err := StringLink(alice, bob, qids, editRule, truth)
		if err != nil {
			return nil, fmt.Errorf("strings: rate %v: %w", rate, err)
		}
		_, exact, err := StringLink(alice, bob, qids, exactRule, truth)
		if err != nil {
			return nil, fmt.Errorf("strings: rate %v: %w", rate, err)
		}
		t.AddRow(pct(rate), pct(edit.Recall()), pct(exact.Recall()))
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

// StringRules returns the string arm's QIDs over the names schema and its
// two decision rules: the edit rule (θ_edit = 0.25) and the
// exact-equality baseline, Hamming on the surname.
func StringRules(schema *dataset.Schema) (qids []int, edit, exact *blocking.Rule, err error) {
	mcs, thresholds, qids, err := names.Rule(schema, 0.25, 0.05)
	if err != nil {
		return nil, nil, nil, err
	}
	if edit, err = blocking.NewRule(mcs, thresholds); err != nil {
		return nil, nil, nil, err
	}
	exact, err = blocking.NewRule([]distance.Metric{distance.Hamming{}, mcs[1], mcs[2]}, thresholds)
	return qids, edit, exact, err
}

// StringLink runs the string arm's pipeline under rule: max-entropy views
// at k = 8, blocking, then one resolution walk that spends 2% of all
// pairs on the heuristic-ordered Unknown pairs, buying from the exact-rule
// oracle (the secure circuit for edit distance is the open problem the
// paper defers). It returns the blocking result and the confusion of its
// matches — blocking Matches plus purchased verdicts — against truth.
func StringLink(alice, bob *dataset.Dataset, qids []int, rule *blocking.Rule, truth []match.Pair) (block *blocking.Result, conf metrics.Confusion, err error) {
	anon := anonymize.NewMaxEntropy()
	aView, err := anon.Anonymize(alice, qids, 8)
	if err != nil {
		return nil, conf, err
	}
	bView, err := anon.Anonymize(bob, qids, 8)
	if err != nil {
		return nil, conf, err
	}
	block, err = index.Block(aView, bView, rule)
	if err != nil {
		return nil, conf, err
	}
	o, err := oracle.New(alice, bob, qids, rule)
	if err != nil {
		return nil, conf, err
	}
	isTrue := make(map[match.Pair]bool, len(truth))
	for _, p := range truth {
		isTrue[p] = true
		if block.Label(aView.ClassOf[p.I], bView.ClassOf[p.J]) == blocking.Match {
			conf.TruePositives++
		}
	}
	reported := block.MatchedPairs
	walk := heuristic.Plan(heuristic.Order(block, rule, heuristic.MinAvgFirst{}, false), aView, bView, 0, 0.02)
	walk.Comparator = o
	walk.Sink = func(ev resolve.Event) {
		for x, j := range ev.Js {
			if ev.Verdicts[x] {
				reported++
				if isTrue[match.Pair{I: ev.I, J: j}] {
					conf.TruePositives++
				}
			}
		}
	}
	if _, err = resolve.Run(walk); err != nil {
		return nil, conf, err
	}
	conf.FalsePositives = reported - conf.TruePositives
	conf.FalseNegatives = int64(len(truth)) - conf.TruePositives
	return block, conf, nil
}
