package dpblock

import (
	"fmt"

	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/vgh"
)

// Block intersects two published DP releases: bin pairs whose sequences
// share at least one concrete value become Unknown (candidates for the
// bloom/SMC tiers), every other record pair is NonMatch. No pair is ever
// labeled Match — DP blocking has no certain-match evidence, so the
// exact layers retain sole authority over Match verdicts and the
// pipeline's structural precision is untouched. The rule is used only to
// validate that the views agree on the QID set.
//
// Both views must have been through Publish; refusing un-noised views
// here is what keeps "exchange only noised bins" an invariant rather
// than a convention.
func Block(a, b *anonymize.Result, rule *blocking.Rule) (*blocking.Result, error) {
	if a.DP == nil || b.DP == nil {
		return nil, fmt.Errorf("dpblock: both views must carry a DP release (got %v/%v)", a.DP != nil, b.DP != nil)
	}
	if err := blocking.ValidateViews(a, b, rule); err != nil {
		return nil, err
	}
	if len(a.DP.NoisedCounts) != len(a.Classes) || len(b.DP.NoisedCounts) != len(b.Classes) {
		return nil, fmt.Errorf("dpblock: noised counts do not cover the classes")
	}

	builder := blocking.NewBuilder(a, b)
	var candidatePairs int64
	for ri, rc := range a.Classes {
		for si, sc := range b.Classes {
			if SequencesIntersect(rc.Sequence, sc.Sequence) {
				builder.Observe(ri, si, blocking.Unknown)
				candidatePairs += int64(rc.Size()) * int64(sc.Size())
			}
		}
	}
	total := int64(len(a.ClassOf)) * int64(len(b.ClassOf))
	builder.AddNonMatched(total - candidatePairs)

	classPairs := int64(len(a.Classes)) * int64(len(b.Classes))
	stats := &blocking.Stats{
		RClasses:        len(a.Classes),
		SClasses:        len(b.Classes),
		ClassPairs:      classPairs,
		RuleEvaluations: classPairs,
	}
	return builder.Result(stats), nil
}

// SequencesIntersect reports whether two bins share at least one concrete
// record value on every attribute. With both holders binning at the same
// depth this degenerates to bin-key equality (sibling bins never share
// values); the general form also handles releases binned at different
// depths. Exported for the incremental engine, whose DP mode labels
// candidate bin pairs with exactly this predicate.
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
