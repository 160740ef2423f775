// Strings demonstrates the paper's future-work extension (Section VIII):
// private record linkage over alphanumeric attributes, where "distance
// functions are much more complex than Hamming distance (e.g. edit
// distance)". Surnames live in a finite dictionary under a prefix
// generalization hierarchy, so the slack-distance machinery applies
// unchanged with the edit-distance metric; one relation's surnames are
// corrupted with near-miss misspellings, and the example shows the edit
// rule recovering matches an exact-equality rule cannot see.
//
// The SMC step here uses the exact-rule oracle: a secure circuit for edit
// distance is precisely the open problem the paper defers, while the
// blocking and selection machinery — this example's subject — is metric-
// agnostic.
//
//	go run ./examples/strings
package main

import (
	"fmt"
	"log"
	"math/rand"

	"pprl"
	"pprl/internal/blocking"
	"pprl/internal/distance"
	"pprl/internal/heuristic"
	"pprl/internal/index"
	"pprl/internal/names"
)

func main() {
	schema := names.Schema()
	population := names.Generate(schema, 600, 1)
	alice, bobClean := pprl.SplitOverlap(population, rand.New(rand.NewSource(2)))
	// Bob's registry is dirty: 30% of surnames are near-miss misspellings.
	bob := names.Corrupt(bobClean, 0.3, 3)
	fmt.Printf("Alice: %d records. Bob: %d records, 30%% of surnames misspelled.\n",
		alice.Len(), bob.Len())

	metrics, thresholds, qids, err := names.Rule(schema, 0.25, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	editRule, err := blocking.NewRule(metrics, thresholds)
	if err != nil {
		log.Fatal(err)
	}
	exactMetrics := []distance.Metric{distance.Hamming{}, metrics[1], metrics[2]}
	exactRule, err := blocking.NewRule(exactMetrics, thresholds)
	if err != nil {
		log.Fatal(err)
	}

	// Ground truth under the edit rule (what the querying party wants).
	truth := truePairs(alice, bob, qids, editRule)
	fmt.Printf("ground truth under the edit rule: %d matching pairs\n\n", len(truth))

	for _, run := range []struct {
		name string
		rule *blocking.Rule
	}{
		{"edit-distance rule (future-work extension)", editRule},
		{"exact-equality baseline (Hamming on surname)", exactRule},
	} {
		recovered := link(alice, bob, qids, run.rule, truth)
		fmt.Printf("%-46s recall vs edit-rule truth: %5.1f%%\n", run.name, 100*recovered)
	}
	fmt.Println(`
The exact-equality rule silently loses every misspelled surname; the
edit-distance rule, with prefix-hierarchy blocking bounding the metric
exactly as sdl/sds bound Hamming, recovers them.`)
}

// link runs anonymize → block → heuristic-ordered budget resolution and
// returns the fraction of truth pairs matched.
func link(alice, bob *pprl.Dataset, qids []int, rule *blocking.Rule, truth map[[2]int]bool) float64 {
	anon := pprl.NewMaxEntropy()
	aView, err := anon.Anonymize(alice, qids, 8)
	if err != nil {
		log.Fatal(err)
	}
	bView, err := anon.Anonymize(bob, qids, 8)
	if err != nil {
		log.Fatal(err)
	}
	block, err := index.Block(aView, bView, rule)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  blocking efficiency %.2f%%, %d unknown pairs\n",
		100*block.Efficiency(), block.UnknownPairs)

	matchedTruth := 0
	// Pairs already matched by blocking.
	block.EachLabeled(func(ri, si int, l blocking.Label) {
		if l != blocking.Match {
			return
		}
		for _, i := range aView.Classes[ri].Members {
			for _, j := range bView.Classes[si].Members {
				if truth[[2]int{i, j}] {
					matchedTruth++
				}
			}
		}
	})
	// Budgeted resolution of unknown pairs, most-likely matches first.
	budget := int64(0.02 * float64(block.TotalPairs()))
	ordered := heuristic.Order(block, rule, heuristic.MinAvgFirst{}, false)
groups:
	for _, gp := range ordered {
		for _, i := range aView.Classes[gp.RI].Members {
			for _, j := range bView.Classes[gp.SI].Members {
				if budget <= 0 {
					break groups
				}
				budget--
				// Oracle resolution (see the package comment): the exact
				// rule stands in for a future secure edit-distance circuit.
				if rule.DecideExact(
					blocking.RecordSequence(alice, qids, i),
					blocking.RecordSequence(bob, qids, j),
				) && truth[[2]int{i, j}] {
					matchedTruth++
				}
			}
		}
	}
	return float64(matchedTruth) / float64(len(truth))
}

func truePairs(alice, bob *pprl.Dataset, qids []int, rule *blocking.Rule) map[[2]int]bool {
	truth := make(map[[2]int]bool)
	for i := 0; i < alice.Len(); i++ {
		for j := 0; j < bob.Len(); j++ {
			if rule.DecideExact(
				blocking.RecordSequence(alice, qids, i),
				blocking.RecordSequence(bob, qids, j),
			) {
				truth[[2]int{i, j}] = true
			}
		}
	}
	return truth
}
