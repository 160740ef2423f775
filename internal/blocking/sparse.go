package blocking

import (
	"sort"

	"pprl/internal/anonymize"
)

// Stats summarizes how a blocking result was produced: how many class
// pairs exist, how many actually reached the slack rule, and how many the
// hierarchy index excluded without enumeration. Pruned pairs are always a
// subset of the NonMatch pairs — the index only excludes a pair when some
// attribute's infimum distance provably exceeds its threshold, the exact
// condition under which the rule itself would return NonMatch.
type Stats struct {
	// RClasses and SClasses are the views' equivalence-class counts.
	RClasses int `json:"r_classes"`
	SClasses int `json:"s_classes"`
	// ClassPairs = RClasses × SClasses.
	ClassPairs int64 `json:"class_pairs"`
	// RuleEvaluations counts class pairs the slack rule actually scored.
	RuleEvaluations int64 `json:"rule_evaluations"`
	// PrunedClassPairs counts class pairs the index excluded; always
	// ClassPairs − RuleEvaluations.
	PrunedClassPairs int64 `json:"pruned_class_pairs"`
	// Attrs holds one entry per rule attribute (index-built results only).
	Attrs []AttrStats `json:"attrs"`
}

// AttrStats is one attribute's contribution to index pruning.
type AttrStats struct {
	// Name is the metric name ("hamming", "euclidean", …).
	Name string `json:"name"`
	// Indexed reports whether the attribute constrains candidates: an
	// attribute whose threshold admits every S class (e.g. Hamming with
	// θ ≥ 1) or whose metric the index does not understand is skipped.
	Indexed bool `json:"indexed"`
	// Admitted sums, over all R classes, the S classes this attribute
	// alone would admit; lower means the attribute prunes harder.
	Admitted int64 `json:"admitted"`
}

// PrunedFraction is the share of class pairs never enumerated.
func (s *Stats) PrunedFraction() float64 {
	if s.ClassPairs == 0 {
		return 0
	}
	return float64(s.PrunedClassPairs) / float64(s.ClassPairs)
}

// Label returns the slack rule's label for class pair (ri, si); a pair
// the result does not store is NonMatch.
func (res *Result) Label(ri, si int) Label {
	if l, ok := res.sparse[[2]int32{int32(ri), int32(si)}]; ok {
		return l
	}
	return NonMatch
}

// EachLabeled calls fn once for every class pair labeled Match or
// Unknown, in no fixed order; callers that need one sort what they
// collect (UnknownGroupPairs is already row-major).
func (res *Result) EachLabeled(fn func(ri, si int, l Label)) {
	for key, l := range res.sparse {
		fn(int(key[0]), int(key[1]), l)
	}
}

// ResultBuilder assembles a Result incrementally — the back end of every
// blocking path (Block, the hierarchy index, DP bin intersection).
// Builders are not safe for concurrent use; parallel producers collect
// locally and merge under their own lock.
type ResultBuilder struct {
	res *Result
}

// NewBuilder starts a result over two validated views.
func NewBuilder(r, s *anonymize.Result) *ResultBuilder {
	return &ResultBuilder{res: &Result{
		R:      r,
		S:      s,
		sparse: make(map[[2]int32]Label),
	}}
}

// Observe records the rule's label for class pair (ri, si), updating the
// record-pair counts and, for M and U, the sparse map.
func (b *ResultBuilder) Observe(ri, si int, l Label) {
	res := b.res
	pairs := int64(res.R.Classes[ri].Size()) * int64(res.S.Classes[si].Size())
	switch l {
	case Match:
		res.MatchedPairs += pairs
		res.sparse[[2]int32{int32(ri), int32(si)}] = Match
	case NonMatch:
		res.NonMatchedPairs += pairs
	default:
		res.UnknownPairs += pairs
		res.UnknownGroups++
		res.sparse[[2]int32{int32(ri), int32(si)}] = Unknown
		res.unknownList = append(res.unknownList, GroupPair{RI: ri, SI: si, Pairs: int(pairs)})
	}
}

// AddNonMatched adds record pairs to the NonMatch tally in bulk: both
// evaluated NonMatch pairs (which the result never stores) and pairs
// the index pruned without evaluation (certain NonMatches by
// construction).
func (b *ResultBuilder) AddNonMatched(recordPairs int64) {
	b.res.NonMatchedPairs += recordPairs
}

// Result finalizes: the unknown list is sorted into row-major (RI, SI)
// order so downstream consumers (heuristic ordering, journaled resume)
// see one sequence however the observations were interleaved.
func (b *ResultBuilder) Result(stats *Stats) *Result {
	res := b.res
	sort.Slice(res.unknownList, func(i, j int) bool {
		a, c := res.unknownList[i], res.unknownList[j]
		if a.RI != c.RI {
			return a.RI < c.RI
		}
		return a.SI < c.SI
	})
	res.Stats = stats
	return res
}
