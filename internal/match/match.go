// Package match computes exact (non-private) record linkage: the ground
// truth the paper's recall measurements are defined against. Recall is
// "the percentage of record pairs correctly labeled as match among all
// pairs satisfying the decision rule" (Section VI), so evaluation needs
// the full set of truly matching pairs.
//
// Enumerating |R|×|S| pairs naively is quadratic; TruePairs instead
// hash-joins on the attributes that must be exactly equal (Hamming
// metrics with θ < 1) and verifies the full rule only within buckets,
// which is linear-ish for realistic rules.
package match

import (
	"fmt"
	"strconv"
	"strings"

	"pprl/internal/blocking"
	"pprl/internal/dataset"
	"pprl/internal/distance"
)

// Pair is a record pair: I indexes the first relation, J the second.
type Pair struct {
	I, J int
}

// Key packs a pair into a single comparable int64 given the second
// relation's size.
func (p Pair) Key(sLen int) int64 { return int64(p.I)*int64(sLen) + int64(p.J) }

// TruePairs returns every record pair of a × b that satisfies the rule,
// in deterministic (I, J) order. The rule's attributes must correspond to
// qids in order.
func TruePairs(a, b *dataset.Dataset, qids []int, rule *blocking.Rule) ([]Pair, error) {
	if rule.Len() != len(qids) {
		return nil, fmt.Errorf("match: rule has %d attributes, %d QIDs given", rule.Len(), len(qids))
	}
	// Attributes that force equality: Hamming with θ < 1.
	var eq []int // positions within qids
	for i := 0; i < rule.Len(); i++ {
		if _, ok := rule.Metric(i).(distance.Hamming); ok && rule.Threshold(i) < 1 {
			eq = append(eq, i)
		}
	}
	var out []Pair
	check := func(i, j int) {
		sa := blocking.RecordSequence(a, qids, i)
		sb := blocking.RecordSequence(b, qids, j)
		if rule.DecideExact(sa, sb) {
			out = append(out, Pair{I: i, J: j})
		}
	}
	if len(eq) == 0 {
		// No equality attribute to join on; full scan.
		for i := 0; i < a.Len(); i++ {
			for j := 0; j < b.Len(); j++ {
				check(i, j)
			}
		}
		return out, nil
	}
	buckets := make(map[string][]int, b.Len())
	var sb strings.Builder
	key := func(d *dataset.Dataset, rec int) string {
		sb.Reset()
		r := d.Record(rec)
		for _, pos := range eq {
			lo, _ := r.Cells[qids[pos]].Node.LeafRange()
			sb.WriteString(strconv.Itoa(lo))
			sb.WriteByte('|')
		}
		return sb.String()
	}
	for j := 0; j < b.Len(); j++ {
		k := key(b, j)
		buckets[k] = append(buckets[k], j)
	}
	for i := 0; i < a.Len(); i++ {
		for _, j := range buckets[key(a, i)] {
			check(i, j)
		}
	}
	return out, nil
}
