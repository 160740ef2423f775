package blocking

import (
	"sort"
	"unsafe"

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
	RClasses, SClasses int
	// ClassPairs = RClasses × SClasses.
	ClassPairs int64
	// RuleEvaluations counts class pairs the slack rule actually scored.
	RuleEvaluations int64
	// PrunedClassPairs counts class pairs the index excluded; always
	// ClassPairs − RuleEvaluations.
	PrunedClassPairs int64
	// Attrs holds one entry per rule attribute (index-built results only).
	Attrs []AttrStats
}

// AttrStats is one attribute's contribution to index pruning.
type AttrStats struct {
	// Name is the metric name ("hamming", "euclidean", …).
	Name string
	// Indexed reports whether the attribute constrains candidates: an
	// attribute whose threshold admits every S class (e.g. Hamming with
	// θ ≥ 1) or whose metric the index does not understand is skipped.
	Indexed bool
	// Admitted sums, over all R classes, the S classes this attribute
	// alone would admit; lower means the attribute prunes harder.
	Admitted int64
}

// PrunedFraction is the share of class pairs never enumerated.
func (s *Stats) PrunedFraction() float64 {
	if s.ClassPairs == 0 {
		return 0
	}
	return float64(s.PrunedClassPairs) / float64(s.ClassPairs)
}

// Label returns the slack rule's label for class pair (ri, si) under
// either representation: the dense matrix when present, otherwise the
// sparse map (where a missing entry is NonMatch).
func (res *Result) Label(ri, si int) Label {
	if res.Labels != nil {
		return res.Labels[ri][si]
	}
	if l, ok := res.sparse[[2]int32{int32(ri), int32(si)}]; ok {
		return l
	}
	return NonMatch
}

// EachLabeled calls fn once for every class pair labeled Match or
// Unknown — the pairs the sparse form stores — under either
// representation: row-major over the dense matrix, in no fixed order
// once it is released.
func (res *Result) EachLabeled(fn func(ri, si int, l Label)) {
	for key, l := range res.sparse {
		fn(int(key[0]), int(key[1]), l)
	}
	for ri, row := range res.Labels {
		for si, l := range row {
			if l != NonMatch {
				fn(ri, si, l)
			}
		}
	}
}

// ReleaseLabels converts a dense result to the sparse representation,
// dropping the |R-classes| × |S-classes| matrix while keeping Label and
// UnknownGroupPairs working. The engine calls it once the heuristic
// ordering is fixed, so the matrix is garbage before the SMC phase
// starts; NonMatch pairs — the overwhelming majority under effective
// blocking — cost nothing in the sparse form. Idempotent.
func (res *Result) ReleaseLabels() {
	if res.Labels == nil {
		return
	}
	sparse := make(map[[2]int32]Label, res.UnknownGroups)
	unknown := make([]GroupPair, 0, res.UnknownGroups)
	res.EachLabeled(func(ri, si int, l Label) {
		sparse[[2]int32{int32(ri), int32(si)}] = l
		if l == Unknown {
			unknown = append(unknown, GroupPair{RI: ri, SI: si, Pairs: res.R.Classes[ri].Size() * res.S.Classes[si].Size()})
		}
	})
	res.sparse = sparse
	res.unknownList = unknown
	res.Labels = nil
}

// DenseLabelsBytes estimates the memory the dense Labels matrix commits
// for a view pair: one Label per class pair plus a row header per R
// class. This is what Config.BlockingBudgetBytes is checked against.
func DenseLabelsBytes(r, s *anonymize.Result) int64 {
	rows, cols := int64(len(r.Classes)), int64(len(s.Classes))
	const sliceHeader = int64(unsafe.Sizeof([]Label(nil)))
	return rows*cols*int64(unsafe.Sizeof(Label(0))) + rows*sliceHeader
}

// ResultBuilder assembles a Result incrementally without ever holding the
// dense matrix — the back end of streaming blocking paths such as the
// hierarchy index. Builders are not safe for concurrent use; parallel
// producers collect locally and merge under their own lock.
type ResultBuilder struct {
	res *Result
}

// NewBuilder starts a sparse result over two validated views.
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
// evaluated NonMatch pairs (which the sparse form never stores) and pairs
// the index pruned without evaluation (certain NonMatches by
// construction).
func (b *ResultBuilder) AddNonMatched(recordPairs int64) {
	b.res.NonMatchedPairs += recordPairs
}

// Result finalizes: the unknown list is sorted into row-major (RI, SI)
// order so downstream consumers (heuristic ordering, journaled resume)
// see exactly the sequence a dense scan would have produced.
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
