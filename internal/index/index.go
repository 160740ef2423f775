// Package index implements hierarchy-aware candidate generation for the
// blocking step: an inverted index (Live) over the generalization-
// hierarchy nodes (and intervals, for continuous attributes) of one
// view's classes, queried with the other view's generalization sequences
// so that class pairs whose infimum distance on some indexed attribute
// provably exceeds its threshold are never enumerated. Only the surviving
// candidates are labeled, which makes blocking sub-quadratic in
// practice while staying label-identical to the exhaustive scan,
// blocking.Block (see DESIGN.md §10).
//
// Soundness rests on the direction of the exclusion: the index may admit
// a class the rule then labels NonMatch (harmless — the rule decides),
// but it excludes a class only when the exact arithmetic the rule itself
// would run (node leaf-range overlap for Hamming, interval gap over the
// normalization factor for Euclidean) already proves inf > θ, the
// condition under which the rule returns NonMatch unconditionally. A
// pruned pair is therefore never one the exhaustive scan labels Match or
// Unknown, which the oracle harness and FuzzIndexPrune verify
// exhaustively. Two bins that share a value on every attribute have
// inf = 0 everywhere, so the same index also serves DP bin intersection.
package index

import (
	"fmt"

	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/vgh"
)

// Block is Stream without progress reports.
func Block(r, s *anonymize.Result, rule *blocking.Rule) (*blocking.Result, error) {
	return Stream(r, s, rule, nil)
}

// Stream runs the blocking step over two published views: it fills a Live
// index with s's class sequences, probes it with each r class's, and
// labels every admitted class pair — by the slack rule over k-anonymous
// views; over DP releases (a pair where only one view carries one is
// refused) Unknown for bins that share a concrete value on every attribute
// and NonMatch otherwise, because DP blocking has no certain-match
// evidence and the exact layers keep sole authority over Match verdicts.
// Pairs the index excludes are accounted as NonMatch record pairs without
// ever being enumerated.
// progress, when non-nil, receives (r classes done, r classes total)
// every hundredth of the rows and on completion.
//
// The result is label-identical to the exhaustive scan's — same counts,
// same Label(ri, si) for every class pair, same UnknownGroupPairs order —
// and its Stats say how many class pairs were labeled.
func Stream(r, s *anonymize.Result, rule *blocking.Rule, progress func(done, total int64)) (*blocking.Result, error) {
	if err := blocking.ValidateViews(r, s, rule); err != nil {
		return nil, err
	}
	dp, err := releases(r, s)
	if err != nil {
		return nil, err
	}
	l := NewLive(rule)
	var totalS int64
	for si := range s.Classes {
		if _, err := l.Insert(s.Classes[si].Sequence); err != nil {
			return nil, err
		}
		totalS += int64(s.Classes[si].Size())
	}

	nR, nS := len(r.Classes), len(s.Classes)
	b := blocking.NewBuilder(r, s)
	stats := &blocking.Stats{RClasses: nR, SClasses: nS, ClassPairs: int64(nR) * int64(nS)}
	admitted := make([]int64, rule.Len())
	cand := newBitset(nS)
	var nonMatched int64
	stride := max(nR/100, 1)
	for ri := range r.Classes {
		rc := &r.Classes[ri]
		rcSize := int64(rc.Size())
		l.intersect(rc.Sequence, cand, admitted)
		var candSize int64
		cand.forEach(func(si int) {
			sc := &s.Classes[si]
			stats.RuleEvaluations++
			candSize += int64(sc.Size())
			lab := blocking.NonMatch
			switch {
			case !dp:
				lab = rule.Decide(rc.Sequence, sc.Sequence)
			case SequencesIntersect(rc.Sequence, sc.Sequence):
				lab = blocking.Unknown
			}
			if lab == blocking.NonMatch {
				nonMatched += rcSize * int64(sc.Size())
			} else {
				b.Observe(ri, si, lab)
			}
		})
		// Everything the intersection dropped is a certain NonMatch: rc's
		// records against every s record not in a candidate class.
		nonMatched += rcSize * (totalS - candSize)
		if done := ri + 1; progress != nil && done%stride == 0 {
			progress(int64(done), int64(nR))
		}
	}
	b.AddNonMatched(nonMatched)

	stats.PrunedClassPairs = stats.ClassPairs - stats.RuleEvaluations
	stats.Attrs = make([]blocking.AttrStats, rule.Len())
	for i := range stats.Attrs {
		a := blocking.AttrStats{Name: rule.Metric(i).Name(), Indexed: l.attrs[i] != nil, Admitted: admitted[i]}
		if !a.Indexed {
			a.Admitted = stats.ClassPairs
		}
		stats.Attrs[i] = a
	}
	if progress != nil {
		progress(int64(nR), int64(nR))
	}
	return b.Result(stats), nil
}

// releases reports whether both views carry a DP release. Exchanging only
// noised bins is an invariant, not a convention: a release on one side
// only would fall back to slack-rule blocking over a k = 1 binning, which
// guarantees neither privacy model, so it is refused.
func releases(r, s *anonymize.Result) (bool, error) {
	if (r.DP == nil) != (s.DP == nil) {
		return false, fmt.Errorf("index: one view carries a DP release and the other does not")
	}
	if r.DP == nil {
		return false, nil
	}
	if len(r.DP.NoisedCounts) != len(r.Classes) || len(s.DP.NoisedCounts) != len(s.Classes) {
		return false, fmt.Errorf("index: noised counts do not cover the classes")
	}
	return true, nil
}

// SequencesIntersect reports whether two bins share at least one concrete
// record value on every attribute. With both holders binning at the same
// depth this degenerates to bin-key equality (sibling bins never share
// values); the general form also handles releases binned at different
// depths.
func SequencesIntersect(a, b vgh.Sequence) bool {
	for j := range a {
		av, bv := a[j], b[j]
		if av.IsCategorical() != bv.IsCategorical() {
			return false
		}
		if av.IsCategorical() {
			if !av.Node.Overlaps(bv.Node) {
				return false
			}
		} else if !av.Iv.Overlaps(bv.Iv) {
			return false
		}
	}
	return true
}
