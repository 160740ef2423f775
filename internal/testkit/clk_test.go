package testkit

import (
	"fmt"
	"strings"
	"testing"

	"pprl/internal/blocking"
	"pprl/internal/bloom"
	"pprl/internal/dataset"
	"pprl/internal/distance"
	"pprl/internal/oracle"
)

// TestCLKEqualityLinksTruePairs is why the triage tier never crosses a
// boundary (SECURITY.md's ledger, DESIGN.md §12). Each world's holders are
// encoded with the tier's encoder over the world's QIDs. Every
// cross-holder pair of equal QID tuples has identical CLKs — the key is no
// defence, equal inputs hash alike under any key — and is a true pair
// under the world's rule, so a party holding both holders' CLKs would
// learn it without buying a comparison. The test logs how many
// identical-CLK pairs there are and how many of them are true pairs (not
// all: a CLK is one set of bigrams with no field positions, so values that
// trade bigrams across attributes collide), and how many records sit in a
// CLK group smaller than their holder's k, singled out inside a
// k-anonymous class.
func TestCLKEqualityLinksTruePairs(t *testing.T) {
	enc := bloom.NewDefaultEncoder()
	var equal, truePairs, records, singled int64
	for n := 0; n < worldCount(t); n++ {
		w := Generate(baseSeed(t) + int64(n))
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
		o, err := oracle.New(w.Alice, w.Bob, qids, rule)
		if err != nil {
			t.Fatal(repro(t, w, err))
		}
		// encode returns each record's CLK and QID tuple, and counts the
		// records of CLK groups smaller than k.
		encode := func(d *dataset.Dataset, k int) (clks, tuples []string) {
			group := map[string]int{}
			for i, f := range bloom.EncodeRecords(enc, d, qids) {
				clks = append(clks, string(f.Marshal()))
				tuples = append(tuples, strings.Join(bloom.FieldsOf(d, qids, i), "\x00"))
				group[clks[i]]++
			}
			for _, clk := range clks {
				if records++; group[clk] < k {
					singled++
				}
			}
			return clks, tuples
		}
		aCLK, aTuple := encode(w.Alice, w.Cfg.AliceK)
		bCLK, bTuple := encode(w.Bob, w.Cfg.BobK)
		for i := range aCLK {
			for j := range bCLK {
				switch {
				case aTuple[i] == bTuple[j] && aCLK[i] != bCLK[j]:
					t.Fatal(repro(t, w, fmt.Errorf("equal QID tuples, different CLKs: %s", o.DescribePair(i, j))))
				case aTuple[i] == bTuple[j] && !o.Matches(i, j):
					t.Fatal(repro(t, w, fmt.Errorf("equal QID tuples on a pair the rule does not match: %s", o.DescribePair(i, j))))
				case aCLK[i] == bCLK[j]:
					equal++
					if o.Matches(i, j) {
						truePairs++
					}
				}
			}
		}
	}
	if equal == 0 {
		t.Fatal("no cross-holder pair had identical CLKs: the count measures nothing")
	}
	t.Logf("%d cross-holder pairs with identical CLKs, %d of them true pairs (%.2f %%); %d of %d records (%.1f %%) in a CLK group smaller than their holder's k",
		equal, truePairs, 100*float64(truePairs)/float64(equal), singled, records, 100*float64(singled)/float64(records))
}
