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
	"pprl/internal/experiment"
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

	qids, editRule, exactRule, err := experiment.StringRules(schema)
	if err != nil {
		log.Fatal(err)
	}

	// Ground truth under the edit rule (what the querying party wants).
	truth, err := pprl.TruePairs(alice, bob, qids, editRule)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ground truth under the edit rule: %d matching pairs\n\n", len(truth))

	for _, run := range []struct {
		name string
		rule *blocking.Rule
	}{
		{"edit-distance rule (future-work extension)", editRule},
		{"exact-equality baseline (Hamming on surname)", exactRule},
	} {
		// anonymize → block → heuristic-ordered resolution of 2% of all
		// pairs, the exact rule standing in for a future secure
		// edit-distance circuit (see the package comment).
		block, conf, err := experiment.StringLink(alice, bob, qids, run.rule, truth)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  blocking efficiency %.2f%%, %d unknown pairs\n",
			100*block.Efficiency(), block.UnknownPairs)
		fmt.Printf("%-46s recall vs edit-rule truth: %5.1f%%\n", run.name, 100*conf.Recall())
	}
	fmt.Println(`
The exact-equality rule silently loses every misspelled surname; the
edit-distance rule, with prefix-hierarchy blocking bounding the metric
exactly as sdl/sds bound Hamming, recovers them.`)
}
