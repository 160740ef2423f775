// Package oracle implements a plaintext reference linker: it computes
// exact per-attribute distances and match verdicts directly on the
// unanonymized relations and checks every layer of the hybrid pipeline
// against them. The paper's central claims — the slack decision rule
// labels pairs with zero error (Section IV) and the maximize-precision
// strategy keeps precision at exactly 100% (Section V-B) — are asserted
// here as machine-checkable invariants over arbitrary schemas, VGHs and
// parameters, not just the worked example.
//
// The oracle deliberately shares as little code as possible with the
// pipeline under test: verdicts come from Rule.DecideExact evaluated on
// the raw record cells, never from anonymized views, encoded integers or
// protocol messages. Every checker reports the minimal offending record
// pair with enough context (sequences, bounds, exact distances) to
// reproduce the failure by hand.
package oracle

import (
	"fmt"
	"strings"

	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/metrics"
	"pprl/internal/vgh"
)

// boundsSlack absorbs float rounding in the sdl ≤ d ≤ sds bracketing
// check: the slack distances and the exact distance take different
// arithmetic paths to the same real number, so equality at interval
// boundaries can differ by an ulp. Genuine bound violations (the bugs
// the oracle exists to catch) are orders of magnitude larger.
const boundsSlack = 1e-9

// Oracle holds the two raw relations and the matching rule, with every
// record pre-rendered as a fully specialized sequence over the QID set.
type Oracle struct {
	alice, bob *dataset.Dataset
	qids       []int
	rule       *blocking.Rule
	aliceSeqs  []vgh.Sequence
	bobSeqs    []vgh.Sequence
}

// New builds the oracle over the unanonymized relations. The rule's
// attributes must correspond to qids in order, exactly as in the
// pipeline configuration under test.
func New(alice, bob *dataset.Dataset, qids []int, rule *blocking.Rule) (*Oracle, error) {
	if alice == nil || bob == nil {
		return nil, fmt.Errorf("oracle: both relations are required")
	}
	if rule.Len() != len(qids) {
		return nil, fmt.Errorf("oracle: rule has %d attributes, %d QIDs given", rule.Len(), len(qids))
	}
	o := &Oracle{
		alice:     alice,
		bob:       bob,
		qids:      qids,
		rule:      rule,
		aliceSeqs: make([]vgh.Sequence, alice.Len()),
		bobSeqs:   make([]vgh.Sequence, bob.Len()),
	}
	for i := 0; i < alice.Len(); i++ {
		o.aliceSeqs[i] = blocking.RecordSequence(alice, qids, i)
	}
	for j := 0; j < bob.Len(); j++ {
		o.bobSeqs[j] = blocking.RecordSequence(bob, qids, j)
	}
	return o, nil
}

// Matches returns the exact decision-rule verdict for record pair
// (i, j): i indexes Alice's relation, j Bob's.
func (o *Oracle) Matches(i, j int) bool {
	return o.rule.DecideExact(o.aliceSeqs[i], o.bobSeqs[j])
}

// Distance returns the exact normalized distance of attribute a for
// record pair (i, j).
func (o *Oracle) Distance(i, j, a int) float64 {
	return o.rule.Metric(a).Distance(o.aliceSeqs[i][a], o.bobSeqs[j][a])
}

// TrueMatchCount counts the truly matching pairs by full enumeration.
func (o *Oracle) TrueMatchCount() int64 {
	var n int64
	for i := range o.aliceSeqs {
		for j := range o.bobSeqs {
			if o.Matches(i, j) {
				n++
			}
		}
	}
	return n
}

// pairFault describes one offending record pair for error reporting.
type pairFault struct {
	i, j int
	msg  string
}

func (f *pairFault) Error() string {
	return fmt.Sprintf("record pair (alice=%d, bob=%d): %s", f.i, f.j, f.msg)
}

// CheckBlocking verifies the zero-blocking-error claim against the
// oracle: for every pair of equivalence classes,
//
//  1. the slack bounds bracket the exact distance on every attribute
//     (sdl ≤ d ≤ sds) for every underlying record pair, and
//  2. a Match label implies every record pair in the class pair truly
//     matches, and a NonMatch label implies none does.
//
// The blocking result must have been built over the oracle's relations
// and rule. The first offense (lowest Alice index, then Bob index) is
// returned with the generalization sequences, bounds and exact
// distances needed to reproduce it.
func (o *Oracle) CheckBlocking(block *blocking.Result) error {
	if len(block.R.ClassOf) != o.alice.Len() || len(block.S.ClassOf) != o.bob.Len() {
		return fmt.Errorf("oracle: blocking result covers %d×%d records, oracle holds %d×%d",
			len(block.R.ClassOf), len(block.S.ClassOf), o.alice.Len(), o.bob.Len())
	}
	var first *pairFault
	note := func(i, j int, format string, args ...any) {
		if first == nil || i < first.i || (i == first.i && j < first.j) {
			first = &pairFault{i: i, j: j, msg: fmt.Sprintf(format, args...)}
		}
	}
	for i := 0; i < o.alice.Len(); i++ {
		ri := block.R.ClassOf[i]
		rSeq := block.R.Classes[ri].Sequence
		for j := 0; j < o.bob.Len(); j++ {
			si := block.S.ClassOf[j]
			sSeq := block.S.Classes[si].Sequence
			for a := 0; a < o.rule.Len(); a++ {
				inf, sup := o.rule.Metric(a).Bounds(rSeq[a], sSeq[a])
				d := o.Distance(i, j, a)
				if d < inf-boundsSlack || d > sup+boundsSlack {
					note(i, j, "attribute %d: exact distance %.9f outside slack bounds [%.9f, %.9f] for generalizations (%v, %v); raw values (%v, %v)",
						a, d, inf, sup, rSeq[a], sSeq[a], o.aliceSeqs[i][a], o.bobSeqs[j][a])
				}
			}
			label := block.Label(ri, si)
			truth := o.Matches(i, j)
			switch {
			case label == blocking.Match && !truth:
				note(i, j, "labeled Match but the exact rule says non-match; classes (%d,%d) generalized to %v / %v, raw records %v / %v",
					ri, si, rSeq, sSeq, o.aliceSeqs[i], o.bobSeqs[j])
			case label == blocking.NonMatch && truth:
				note(i, j, "labeled NonMatch but the exact rule says match; classes (%d,%d) generalized to %v / %v, raw records %v / %v",
					ri, si, rSeq, sSeq, o.aliceSeqs[i], o.bobSeqs[j])
			}
		}
	}
	if first != nil {
		return fmt.Errorf("oracle: blocking error: %w", first)
	}
	return nil
}

// CompareBatch answers each pair with Matches: the oracle as a
// resolution kernel's comparator, for rules no secure circuit evaluates
// yet (edit distance).
func (o *Oracle) CompareBatch(pairs [][2]int) ([]bool, error) {
	verdicts := make([]bool, len(pairs))
	for k, p := range pairs {
		verdicts[k] = o.Matches(p[0], p[1])
	}
	return verdicts, nil
}

// CheckComparator verifies that an SMC comparator's verdict equals the
// oracle's exact threshold comparison for every listed record pair,
// through the batch path the linkage engine buys with.
func (o *Oracle) CheckComparator(cmp interface {
	CompareBatch(pairs [][2]int) ([]bool, error)
}, pairs [][2]int) error {
	verdicts, err := cmp.CompareBatch(pairs)
	if err != nil {
		return fmt.Errorf("oracle: comparator batch failed: %w", err)
	}
	if len(verdicts) != len(pairs) {
		return fmt.Errorf("oracle: comparator returned %d verdicts for %d pairs", len(verdicts), len(pairs))
	}
	var disagreements []string
	for k, p := range pairs {
		if truth := o.Matches(p[0], p[1]); verdicts[k] != truth {
			disagreements = append(disagreements,
				fmt.Sprintf("pair (alice=%d, bob=%d): comparator says %v, oracle says %v (raw %v / %v)",
					p[0], p[1], verdicts[k], truth, o.aliceSeqs[p[0]], o.bobSeqs[p[1]]))
		}
	}
	if len(disagreements) > 0 {
		return fmt.Errorf("oracle: %d/%d SMC verdicts disagree; first: %s",
			len(disagreements), len(pairs), disagreements[0])
	}
	return nil
}

// Report is the oracle's scoring of one linkage result: the confusion
// against exact ground truth plus the label accounting used by the
// invariant checks.
type Report struct {
	Confusion metrics.Confusion
	// Reported is the number of pairs the result labeled match, counted
	// by enumeration (cross-checked against Result.MatchedPairCount).
	Reported int64
}

// CheckResult enumerates the full |R|×|S| pair space of a linkage
// result and verifies it against the oracle:
//
//   - under the maximize-precision strategy, every reported match is a
//     true match — precision is exactly 1.0, never approximately, with
//     the triage tier on or off (the tier can only say NonMatch);
//   - MatchedPairCount agrees with the enumerated count (the closed-form
//     accounting cannot drift from the actual labeling);
//   - the returned confusion is computed independently of
//     Result.Evaluate, from raw cells only.
func (o *Oracle) CheckResult(res *core.Result) (Report, error) {
	var rep Report
	var firstFalse *pairFault
	for i := 0; i < o.alice.Len(); i++ {
		for j := 0; j < o.bob.Len(); j++ {
			predicted := res.PairMatched(i, j)
			truth := o.Matches(i, j)
			if predicted {
				rep.Reported++
				if truth {
					rep.Confusion.TruePositives++
				} else {
					rep.Confusion.FalsePositives++
					if firstFalse == nil {
						firstFalse = &pairFault{i: i, j: j, msg: fmt.Sprintf(
							"reported as match but the exact rule says non-match (raw %v / %v)",
							o.aliceSeqs[i], o.bobSeqs[j])}
					}
				}
			} else if truth {
				rep.Confusion.FalseNegatives++
			}
		}
	}
	if got := res.MatchedPairCount(); got != rep.Reported {
		return rep, fmt.Errorf("oracle: MatchedPairCount reports %d, enumeration finds %d", got, rep.Reported)
	}
	if fp := rep.Confusion.FalsePositives; res.Strategy() == core.MaximizePrecision && fp > 0 {
		return rep, fmt.Errorf("oracle: maximize-precision produced %d false positives (precision %.6f): %w",
			fp, rep.Confusion.Precision(), firstFalse)
	}
	return rep, nil
}

// CheckMatches is CheckResult's precision invariant for the shapes that
// report a match list instead of a core.Result — a session's handle pairs,
// a live engine's deltas — under maximize-precision: every listed pair
// lies in the pair space, is listed once, and is a true match. It returns
// the confusion against the exact rule.
func (o *Oracle) CheckMatches(pairs [][2]int) (metrics.Confusion, error) {
	var conf metrics.Confusion
	seen := make(map[[2]int]bool, len(pairs))
	for _, p := range pairs {
		switch {
		case p[0] < 0 || p[0] >= o.alice.Len() || p[1] < 0 || p[1] >= o.bob.Len():
			return conf, fmt.Errorf("oracle: reported pair (%d,%d) outside the %d×%d pair space", p[0], p[1], o.alice.Len(), o.bob.Len())
		case seen[p]:
			return conf, fmt.Errorf("oracle: pair (%d,%d) reported twice", p[0], p[1])
		case !o.Matches(p[0], p[1]):
			return conf, fmt.Errorf("oracle: maximize-precision produced a false positive: %w", &pairFault{i: p[0], j: p[1], msg: fmt.Sprintf(
				"reported as match but the exact rule says non-match (raw %v / %v)", o.aliceSeqs[p[0]], o.bobSeqs[p[1]])})
		}
		seen[p] = true
	}
	conf.TruePositives = int64(len(pairs))
	conf.FalseNegatives = o.TrueMatchCount() - conf.TruePositives
	return conf, nil
}

// TierReport is the oracle's scoring of the triage tier's heuristic
// NonMatch labels against exact ground truth.
type TierReport struct {
	// Labeled is the number of tier-labeled pairs found by enumeration.
	Labeled int64
	// FalseNonMatches counts the tier labels the exact rule calls a match:
	// the only way a tier label can be wrong.
	FalseNonMatches int64
}

// MissRate is the fraction of tier labels that discarded a true match;
// 0 when the tier labeled nothing.
func (r TierReport) MissRate() float64 {
	if r.Labeled == 0 {
		return 0
	}
	return float64(r.FalseNonMatches) / float64(r.Labeled)
}

// CheckTier enumerates the full pair space and verifies the triage
// tier's structural invariants:
//
//   - a pair labeled Certain by blocking (Match or NonMatch) is never
//     tier-labeled — the tier only ever touches the Unknown band;
//   - a pair holding a purchased SMC verdict is never tier-labeled — an
//     exact verdict is never shadowed by a heuristic one;
//   - the result's tier counter agrees with enumeration.
//
// It scores every tier label against the exact rule and, when
// maxMissRate ≥ 0, fails if the share of labels that discarded a true
// match exceeds it. Pass a negative maxMissRate to collect the report
// without enforcing a bound (the rate depends on the threshold and the
// data; the structural invariants above are enforced unconditionally).
func (o *Oracle) CheckTier(res *core.Result, maxMissRate float64) (TierReport, error) {
	var rep TierReport
	for i := 0; i < o.alice.Len(); i++ {
		ri := res.Block.R.ClassOf[i]
		for j := 0; j < o.bob.Len(); j++ {
			if !res.TierLabeled(i, j) {
				continue
			}
			si := res.Block.S.ClassOf[j]
			if label := res.Block.Label(ri, si); label != blocking.Unknown {
				return rep, fmt.Errorf("oracle: tier re-labeled a Certain pair: %w",
					&pairFault{i: i, j: j, msg: fmt.Sprintf("blocking already labeled it %v", label)})
			}
			if _, bought := res.SMCLabel(i, j); bought {
				return rep, fmt.Errorf("oracle: tier label shadows a purchased SMC verdict: %w",
					&pairFault{i: i, j: j, msg: "pair holds both a tier label and an SMC verdict"})
			}
			rep.Labeled++
			if o.Matches(i, j) {
				rep.FalseNonMatches++
			}
		}
	}
	if rep.Labeled != res.TierNonMatchedPairs() {
		return rep, fmt.Errorf("oracle: tier counter disagrees with enumeration: counted %d, result reports %d",
			rep.Labeled, res.TierNonMatchedPairs())
	}
	if rate := rep.MissRate(); maxMissRate >= 0 && rate > maxMissRate {
		return rep, fmt.Errorf("oracle: tier miss rate %.6f exceeds bound %.6f (%d false non-matches of %d labels)",
			rate, maxMissRate, rep.FalseNonMatches, rep.Labeled)
	}
	return rep, nil
}

// DPBlockReport is the oracle's scoring of a differentially private
// blocking result against exact ground truth.
type DPBlockReport struct {
	// TrueMatches is the exact match count over the full pair space.
	TrueMatches int64
	// Missed counts truly matching record pairs whose bins do not
	// intersect — DP blocking excludes them from the candidate space, so
	// no downstream layer can ever recover them.
	Missed int64
	// CandidatePairs counts record pairs left Unknown for the tiers
	// below (before dummy padding).
	CandidatePairs int64
}

// MissRate is the fraction of true matches the bin intersection lost;
// 0 when the relations hold no true match.
func (r DPBlockReport) MissRate() float64 {
	if r.TrueMatches == 0 {
		return 0
	}
	return float64(r.Missed) / float64(r.TrueMatches)
}

// CheckDPBlocking verifies the DP blocking contract against the oracle:
//
//   - the result carries a noised release for both relations, with one
//     padded count ≥ the true size per class (published sizes never
//     understate, so padding never hides a real member);
//   - no class pair is labeled Match — DP blocking only ever prunes;
//     match authority stays with the exact layers, which is why noised
//     blocking cannot create false positives;
//   - every truly matching pair that was pruned is counted, and when
//     maxMissRate ≥ 0 the missed-match rate must stay under it. Pass a
//     negative bound to collect the report without enforcing one (the
//     rate depends on the binning depth and data skew; the structural
//     invariants above are enforced unconditionally).
func (o *Oracle) CheckDPBlocking(block *blocking.Result, maxMissRate float64) (DPBlockReport, error) {
	var rep DPBlockReport
	for _, side := range []struct {
		name string
		view *anonymize.Result
	}{{"alice", block.R}, {"bob", block.S}} {
		dp := side.view.DP
		if dp == nil {
			return rep, fmt.Errorf("oracle: %s carries no DP release", side.name)
		}
		if len(dp.NoisedCounts) != len(side.view.Classes) {
			return rep, fmt.Errorf("oracle: %s release has %d counts for %d classes",
				side.name, len(dp.NoisedCounts), len(side.view.Classes))
		}
		for ci, c := range side.view.Classes {
			if dp.NoisedCounts[ci] < int64(c.Size()) {
				return rep, fmt.Errorf("oracle: %s class %d (%v) published count %d below true size %d",
					side.name, ci, c.Sequence, dp.NoisedCounts[ci], c.Size())
			}
		}
	}
	var firstMiss *pairFault
	for i := 0; i < o.alice.Len(); i++ {
		ri := block.R.ClassOf[i]
		for j := 0; j < o.bob.Len(); j++ {
			si := block.S.ClassOf[j]
			label := block.Label(ri, si)
			if label == blocking.Match {
				return rep, fmt.Errorf("oracle: DP blocking asserted a Match label: %w",
					&pairFault{i: i, j: j, msg: fmt.Sprintf("classes (%d,%d) labeled Match; DP blocking must leave match authority to the exact layers", ri, si)})
			}
			if label == blocking.Unknown {
				rep.CandidatePairs++
			}
			if !o.Matches(i, j) {
				continue
			}
			rep.TrueMatches++
			if label == blocking.NonMatch {
				rep.Missed++
				if firstMiss == nil {
					firstMiss = &pairFault{i: i, j: j, msg: fmt.Sprintf(
						"true match pruned: bins %v / %v do not intersect (raw %v / %v)",
						block.R.Classes[ri].Sequence, block.S.Classes[si].Sequence, o.aliceSeqs[i], o.bobSeqs[j])}
				}
			}
		}
	}
	if rate := rep.MissRate(); maxMissRate >= 0 && rate > maxMissRate {
		return rep, fmt.Errorf("oracle: DP blocking missed-match rate %.6f exceeds bound %.6f (%d of %d true matches pruned); first: %w",
			rate, maxMissRate, rep.Missed, rep.TrueMatches, firstMiss)
	}
	return rep, nil
}

// CheckMonotoneRecall asserts that recall never decreases along a
// sequence of linkage results ordered by growing SMC allowance (or any
// other axis where more budget can only resolve a superset of pairs).
// The results must all stem from the same blocking result and
// heuristic, as produced by core.LinkPrepared sweeps.
func (o *Oracle) CheckMonotoneRecall(results []*core.Result, axis string) error {
	prev := -1.0
	prevLabel := ""
	for _, res := range results {
		rep, err := o.CheckResult(res)
		if err != nil {
			return err
		}
		r := rep.Confusion.Recall()
		label := fmt.Sprintf("%s=%d", axis, res.Allowance)
		if r < prev-boundsSlack {
			return fmt.Errorf("oracle: recall not monotone in %s: %.6f at %s after %.6f at %s",
				axis, r, label, prev, prevLabel)
		}
		prev, prevLabel = r, label
	}
	return nil
}

// ViewsNested reports whether, for every record, the generalization
// assigned by coarse covers the one assigned by fine — i.e. coarse is a
// pointwise coarsening of fine. Recall monotonicity in k is only
// guaranteed under nesting (full-domain ladders nest; greedy top-down
// paths may cross-cut), so harnesses gate the k-monotonicity check on
// this predicate.
func ViewsNested(fine, coarse interface {
	SequenceOf(i int) vgh.Sequence
}, records int) bool {
	for i := 0; i < records; i++ {
		f, c := fine.SequenceOf(i), coarse.SequenceOf(i)
		if len(f) != len(c) {
			return false
		}
		for a := range f {
			if !c[a].Covers(f[a]) {
				return false
			}
		}
	}
	return true
}

// DescribePair renders one record pair with its per-attribute exact
// distances and thresholds — the "minimal offending pair" dump harness
// failures print alongside the reproducing seed.
func (o *Oracle) DescribePair(i, j int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "alice[%d]=%v bob[%d]=%v:", i, o.aliceSeqs[i], j, o.bobSeqs[j])
	for a := 0; a < o.rule.Len(); a++ {
		fmt.Fprintf(&sb, " d%d=%.6f/θ=%.6f", a, o.Distance(i, j, a), o.rule.Threshold(a))
	}
	fmt.Fprintf(&sb, " → match=%v", o.Matches(i, j))
	return sb.String()
}
