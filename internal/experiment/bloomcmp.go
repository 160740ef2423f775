package experiment

import (
	"fmt"
	"math/rand"

	"pprl/internal/bloom"
	"pprl/internal/dataset"
	"pprl/internal/match"
	"pprl/internal/metrics"
	"pprl/internal/names"
)

// Bloom compares the hybrid method against Bloom-filter (CLK) linkage —
// the approach most post-2008 open-source PPRL tools adopted — on the
// dirty string workload (30% of surnames misspelled). Both are scored
// against the edit-rule ground truth. The contrast the table shows: CLK
// linkage is free at match time and typo-tolerant, but trades precision
// against recall through its Dice threshold and offers only heuristic
// privacy; the hybrid method keeps precision at exactly 100% and prices
// recall in SMC invocations under provable guarantees.
func Bloom(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	schema := names.Schema()
	population := names.Generate(schema, stringWorkloadSize(opts), opts.Seed)
	alice, bobClean := dataset.SplitOverlap(population, rand.New(rand.NewSource(opts.Seed+1)))
	bob := names.Corrupt(bobClean, 0.3, opts.Seed+2)

	qids, editRule, _, err := StringRules(schema)
	if err != nil {
		return nil, err
	}
	truth, err := match.TruePairs(alice, bob, qids, editRule)
	if err != nil {
		return nil, err
	}
	if len(truth) == 0 {
		return nil, fmt.Errorf("bloom: empty ground truth")
	}

	t := &Table{
		ID:      "bloom",
		Title:   "Hybrid vs. Bloom-filter (CLK) linkage on 30%-misspelled names",
		Columns: []string{"method", "precision", "recall"},
	}

	enc, err := bloom.NewEncoder(1000, 30, 2, []byte("pprl-shared-key"))
	if err != nil {
		return nil, err
	}
	aFilters := bloom.EncodeRecords(enc, alice, qids)
	bFilters := bloom.EncodeRecords(enc, bob, qids)
	for _, tau := range []float64{0.95, 0.90, 0.85} {
		conf := bloomLink(aFilters, bFilters, tau, truth)
		t.AddRow(fmt.Sprintf("Bloom CLK, Dice ≥ %.2f", tau),
			pct(conf.Precision()), pct(conf.Recall()))
	}

	_, hybrid, err := StringLink(alice, bob, qids, editRule, truth)
	if err != nil {
		return nil, err
	}
	t.AddRow("hybrid edit rule (2% SMC budget)", pct(hybrid.Precision()), pct(hybrid.Recall()))
	return t, nil
}

// bloomLink scores the all-pairs Dice threshold matcher against truth.
func bloomLink(a, b []*bloom.Filter, tau float64, truth []match.Pair) metrics.Confusion {
	var reported, tp int64
	for i := range a {
		for j := range b {
			if a[i].Dice(b[j]) >= tau {
				reported++
			}
		}
	}
	for _, p := range truth {
		if a[p.I].Dice(b[p.J]) >= tau {
			tp++
		}
	}
	return metrics.Confusion{
		TruePositives:  tp,
		FalsePositives: reported - tp,
		FalseNegatives: int64(len(truth)) - tp,
	}
}
