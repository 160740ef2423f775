// Package blocking implements the blocking step of the hybrid private
// record linkage protocol (paper Section IV): given the k-anonymized views
// published by the two data holders, the slack decision rule labels every
// record pair Match, NonMatch, or Unknown using only the infimum (sdl) and
// supremum (sds) distances over the specialization sets of the generalized
// values. M and N labels are *certain* — the source of the method's 100%
// precision — while Unknown pairs are deferred to the SMC step.
//
// Because every record in an equivalence class shares the same
// generalization sequence, the rule is evaluated once per pair of classes,
// never per pair of records ("We do not need to repeat the process for
// pairs generalized to the same sequences", Section III), so blocking cost
// is quadratic in the number of distinct sequences, not records.
package blocking

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pprl/internal/anonymize"
	"pprl/internal/dataset"
	"pprl/internal/distance"
	"pprl/internal/vgh"
)

// Label is the three-valued outcome of the slack decision rule.
type Label int8

const (
	// Unknown means the anonymized views cannot decide the pair; it goes
	// to the SMC step.
	Unknown Label = iota
	// Match means every attribute's supremum distance is within its
	// threshold: the records certainly match.
	Match
	// NonMatch means some attribute's infimum distance exceeds its
	// threshold: the records certainly do not match.
	NonMatch
)

func (l Label) String() string {
	switch l {
	case Match:
		return "M"
	case NonMatch:
		return "N"
	case Unknown:
		return "U"
	default:
		return fmt.Sprintf("Label(%d)", int8(l))
	}
}

// Rule is the matching classifier supplied by the querying party: one
// normalized distance metric and threshold per quasi-identifier attribute.
// A record pair matches iff every attribute distance is ≤ its threshold.
type Rule struct {
	metrics    []distance.Metric
	thresholds []float64
}

// NewRule validates and pairs metrics with thresholds.
func NewRule(metrics []distance.Metric, thresholds []float64) (*Rule, error) {
	if len(metrics) == 0 {
		return nil, fmt.Errorf("blocking: rule needs at least one attribute")
	}
	if len(metrics) != len(thresholds) {
		return nil, fmt.Errorf("blocking: %d metrics but %d thresholds", len(metrics), len(thresholds))
	}
	for i, th := range thresholds {
		if th < 0 {
			return nil, fmt.Errorf("blocking: threshold %d is negative (%v)", i, th)
		}
	}
	return &Rule{metrics: metrics, thresholds: thresholds}, nil
}

// UniformRule builds a rule with the same threshold θ on every attribute,
// the configuration of the paper's experiments (θ_i = 0.05 by default).
func UniformRule(metrics []distance.Metric, theta float64) (*Rule, error) {
	th := make([]float64, len(metrics))
	for i := range th {
		th[i] = theta
	}
	return NewRule(metrics, th)
}

// RuleFor builds the paper's default rule over a schema's QID subset:
// Hamming for categorical attributes, range-normalized Euclidean for
// continuous ones, uniform threshold θ.
func RuleFor(schema *dataset.Schema, qids []int, theta float64) (*Rule, error) {
	return UniformRule(distance.MetricsFor(schema, qids), theta)
}

// Len returns the number of attributes the rule compares.
func (r *Rule) Len() int { return len(r.metrics) }

// Metric returns the metric of attribute i.
func (r *Rule) Metric(i int) distance.Metric { return r.metrics[i] }

// Threshold returns θ_i.
func (r *Rule) Threshold(i int) float64 { return r.thresholds[i] }

// Decide applies the slack decision rule sdr (Section IV) to two
// generalization sequences:
//
//	N  if ∃i: sdl(v_i, w_i) > θ_i
//	M  if ∀i: sds(v_i, w_i) ≤ θ_i
//	U  otherwise
func (r *Rule) Decide(v, w vgh.Sequence) Label {
	allWithin := true
	for i, m := range r.metrics {
		inf, sup := m.Bounds(v[i], w[i])
		if inf > r.thresholds[i] {
			return NonMatch
		}
		if sup > r.thresholds[i] {
			allWithin = false
		}
	}
	if allWithin {
		return Match
	}
	return Unknown
}

// DecideExact applies the exact decision rule dr (Section II) to two
// fully specialized sequences: true iff every attribute distance is within
// its threshold. This is what the SMC step computes under encryption and
// what ground-truth evaluation uses in the clear.
func (r *Rule) DecideExact(a, b vgh.Sequence) bool {
	for i, m := range r.metrics {
		if m.Distance(a[i], b[i]) > r.thresholds[i] {
			return false
		}
	}
	return true
}

// ExpectedDistances returns dExp per attribute for a sequence pair, the
// inputs to the SMC selection heuristics (Section V-C).
func (r *Rule) ExpectedDistances(v, w vgh.Sequence, dst []float64) []float64 {
	if cap(dst) < len(r.metrics) {
		dst = make([]float64, len(r.metrics))
	}
	dst = dst[:len(r.metrics)]
	for i, m := range r.metrics {
		dst[i] = m.Expected(v[i], w[i])
	}
	return dst
}

// RecordSequence renders record i of d as a fully specialized sequence
// over the QID subset, the form DecideExact consumes.
func RecordSequence(d *dataset.Dataset, qids []int, i int) vgh.Sequence {
	seq := make(vgh.Sequence, len(qids))
	rec := d.Record(i)
	for j, q := range qids {
		seq[j] = rec.Value(q)
	}
	return seq
}

// GroupPair identifies a pair of equivalence classes (R-side index,
// S-side index) and caches the number of record pairs it stands for.
type GroupPair struct {
	RI, SI int
	// Pairs = |class R| × |class S|.
	Pairs int
}

// Result is the outcome of the blocking step over two anonymized views.
// It stores only the Match and Unknown class pairs — NonMatch, the
// overwhelming majority under effective blocking, is the implicit label —
// so its memory scales with what the later stages consume, not with
// |R classes| × |S classes|. Read labels through Label and EachLabeled.
type Result struct {
	// R and S are the data holders' published views.
	R, S *anonymize.Result
	// MatchedPairs, NonMatchedPairs and UnknownPairs count *record* pairs
	// under each label.
	MatchedPairs    int64
	NonMatchedPairs int64
	UnknownPairs    int64
	// UnknownGroups counts the *class* pairs labeled Unknown.
	UnknownGroups int64
	// Stats carries the per-attribute pruning statistics when the result
	// was produced by the hierarchy index (nil for the exhaustive Block).
	Stats *Stats

	// sparse holds the M and U class pairs; a missing key is NonMatch
	// (which is why NonMatch, not the zero-valued Unknown, is the implicit
	// label).
	sparse map[[2]int32]Label
	// unknownList is the U class-pair list in row-major (RI, SI) order.
	unknownList []GroupPair
}

// parallelThreshold is the class-pair count above which Block fans out
// across CPUs. Small inputs stay serial to avoid goroutine overhead.
var parallelThreshold = 1 << 14

// Block evaluates the slack decision rule on every pair of equivalence
// classes: the exhaustive reference the hierarchy index (internal/index,
// the engine every pipeline runs) is tested, fuzzed and benchmarked
// against. The rule's attribute order must correspond to the views' QID
// order, and both views must have been built over the same QID list.
// Large inputs are processed in parallel; the result is identical either
// way.
func Block(r, s *anonymize.Result, rule *Rule) (*Result, error) {
	if err := ValidateViews(r, s, rule); err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	if len(r.Classes)*len(s.Classes) < parallelThreshold || workers < 2 {
		workers = 1
	}
	b := NewBuilder(r, s)
	var (
		wg      sync.WaitGroup
		nextRow atomic.Int64
		// mu guards the merge of worker-local observations into the builder.
		mu sync.Mutex
	)
	worker := func() {
		defer wg.Done()
		type labeled struct {
			ri, si int32
			l      Label
		}
		var (
			kept       []labeled
			nonMatched int64
		)
		for {
			ri := int(nextRow.Add(1)) - 1
			if ri >= len(r.Classes) {
				break
			}
			rc := &r.Classes[ri]
			for si := range s.Classes {
				sc := &s.Classes[si]
				if l := rule.Decide(rc.Sequence, sc.Sequence); l == NonMatch {
					nonMatched += int64(rc.Size()) * int64(sc.Size())
				} else {
					kept = append(kept, labeled{int32(ri), int32(si), l})
				}
			}
		}
		mu.Lock()
		defer mu.Unlock()
		for _, e := range kept {
			b.Observe(int(e.ri), int(e.si), e.l)
		}
		b.AddNonMatched(nonMatched)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	return b.Result(nil), nil
}

// ValidateViews checks that two anonymized views and a rule agree on the
// QID list, the precondition shared by every blocking path (Block and the
// hierarchy index).
func ValidateViews(r, s *anonymize.Result, rule *Rule) error {
	if len(r.QIDs) != rule.Len() || len(s.QIDs) != rule.Len() {
		return fmt.Errorf("blocking: rule has %d attributes, views have %d and %d QIDs",
			rule.Len(), len(r.QIDs), len(s.QIDs))
	}
	for i := range r.QIDs {
		if r.QIDs[i] != s.QIDs[i] {
			return fmt.Errorf("blocking: views disagree on QID %d (%d vs %d)", i, r.QIDs[i], s.QIDs[i])
		}
	}
	return nil
}

// TotalPairs returns |R| × |S| in record pairs.
func (res *Result) TotalPairs() int64 {
	return res.MatchedPairs + res.NonMatchedPairs + res.UnknownPairs
}

// Efficiency returns the paper's blocking-efficiency measure: the fraction
// of record pairs permanently classified (M or N) by the slack rule.
func (res *Result) Efficiency() float64 {
	total := res.TotalPairs()
	if total == 0 {
		return 0
	}
	return float64(res.MatchedPairs+res.NonMatchedPairs) / float64(total)
}

// UnknownGroupPairs lists the class pairs labeled U, the SMC step's
// candidate set, in row-major (RI, SI) order. Callers may reorder the
// returned slice.
func (res *Result) UnknownGroupPairs() []GroupPair {
	return append([]GroupPair(nil), res.unknownList...)
}
