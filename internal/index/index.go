// Package index implements hierarchy-aware candidate generation for the
// blocking step: an inverted index over the generalization-hierarchy
// nodes (and intervals, for continuous attributes) of one anonymized
// view, queried with the other view's generalization sequences so that
// class pairs whose infimum distance on some indexed attribute provably
// exceeds its threshold are never enumerated. The slack decision rule
// runs only on the surviving candidates, which makes blocking
// sub-quadratic in practice while staying label-identical to the
// exhaustive scan, blocking.Block (see DESIGN.md §10).
//
// Soundness rests on the direction of the exclusion: the index may admit
// a class the rule then labels NonMatch (harmless — the rule decides),
// but it excludes a class only when the exact arithmetic the rule itself
// would run (node leaf-range overlap for Hamming, interval gap over the
// normalization factor for Euclidean) already proves inf > θ, the
// condition under which the rule returns NonMatch unconditionally. A
// pruned pair is therefore never one the exhaustive scan labels Match or
// Unknown, which the oracle harness and FuzzIndexPrune verify
// exhaustively.
package index

import (
	"fmt"
	"sort"

	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/distance"
	"pprl/internal/vgh"
)

// postings is one attribute's admission structure over the S view's
// equivalence classes.
type postings interface {
	// admit sets the bit of every S class whose infimum distance to v on
	// this attribute is not provably over the threshold.
	admit(v vgh.Value, bs bitset)
}

// Index is the inverted hierarchy index over one anonymized view (the
// "S side"), queried with the other view's class sequences. Build once
// per blocking run; queries are read-only and safe for concurrent use.
type Index struct {
	s    *anonymize.Result
	rule *blocking.Rule
	// attrs[i] is attribute i's postings; nil when the attribute cannot
	// constrain candidates (threshold admits everything, or a metric the
	// index does not understand).
	attrs       []postings
	constrained []int
}

// New builds the index over view s for the given rule. The rule's
// attribute order must correspond to the view's QID order, as in
// blocking.Block.
func New(s *anonymize.Result, rule *blocking.Rule) (*Index, error) {
	if len(s.QIDs) != rule.Len() {
		return nil, fmt.Errorf("index: rule has %d attributes, view has %d QIDs", rule.Len(), len(s.QIDs))
	}
	ix := &Index{s: s, rule: rule, attrs: make([]postings, rule.Len())}
	for i := 0; i < rule.Len(); i++ {
		theta := rule.Threshold(i)
		switch m := rule.Metric(i).(type) {
		case distance.Hamming:
			// Hamming distances are 0 or 1, so θ ≥ 1 admits every pair.
			if theta >= 1 {
				continue
			}
			p, err := newCatPostings(s, i)
			if err != nil {
				return nil, err
			}
			ix.attrs[i] = p
		case distance.Euclidean:
			// A non-positive normalization factor makes the rule's inf
			// non-positive for every pair: nothing is excludable.
			if m.Norm <= 0 {
				continue
			}
			p, err := newNumPostings(s, i, m.Norm, theta)
			if err != nil {
				return nil, err
			}
			ix.attrs[i] = p
		default:
			// Unknown metric: no exclusion model, leave unconstrained.
		}
	}
	for i, p := range ix.attrs {
		if p != nil {
			ix.constrained = append(ix.constrained, i)
		}
	}
	return ix, nil
}

// Constrained reports how many attributes actually prune candidates.
func (ix *Index) Constrained() int { return len(ix.constrained) }

// catPostings indexes a categorical attribute. Hamming's infimum is 0
// exactly when the two nodes' leaf ranges overlap, i.e. one is an
// ancestor of the other (vgh.Node.Overlaps); with θ < 1 every
// non-overlapping pair is excludable. The admissible S classes for a
// query node v are those whose node lies at or below v (the "under"
// posting list of v itself) plus those whose node is a proper ancestor
// of v (the "at" lists along v's ancestor path) — two disjoint walks
// that never touch the rest of the hierarchy.
type catPostings struct {
	// under[n] lists the classes whose node is n or a descendant of n.
	under map[*vgh.Node][]int32
	// at[n] lists the classes whose node is exactly n.
	at map[*vgh.Node][]int32
}

func newCatPostings(s *anonymize.Result, attr int) (*catPostings, error) {
	p := &catPostings{
		under: make(map[*vgh.Node][]int32),
		at:    make(map[*vgh.Node][]int32),
	}
	for si := range s.Classes {
		v := s.Classes[si].Sequence[attr]
		if v.Node == nil {
			return nil, fmt.Errorf("index: attribute %d: categorical metric over continuous value", attr)
		}
		p.at[v.Node] = append(p.at[v.Node], int32(si))
		for n := v.Node; n != nil; n = n.Parent {
			p.under[n] = append(p.under[n], int32(si))
		}
	}
	return p, nil
}

func (p *catPostings) admit(v vgh.Value, bs bitset) {
	if v.Node == nil {
		panic("distance: Hamming applies to categorical values")
	}
	for _, si := range p.under[v.Node] {
		bs.set(int(si))
	}
	for n := v.Node.Parent; n != nil; n = n.Parent {
		for _, si := range p.at[n] {
			bs.set(int(si))
		}
	}
}

// numPostings indexes a continuous attribute. S classes are bucketed by
// interval width (one bucket per hierarchy level, plus one for fully
// specialized points), each bucket sorted by Lo; a query finds the
// admissible run of each bucket with two binary searches.
//
// Exclusion uses the exact float expressions of Euclidean.Bounds — the
// gap (other.Lo − iv.Hi, or iv.Lo − other.Hi) divided by Norm — so a
// class is dropped only when the rule's own inf computation would exceed
// θ. The left boundary searches over the prefix maximum of Hi rather
// than Hi itself, which keeps the predicate monotone even if float
// rounding makes Hi not strictly ordered within a bucket; any slack this
// introduces only admits extra candidates, never excludes one.
type numPostings struct {
	norm, theta float64
	levels      []numLevel
}

type numLevel struct {
	lo    []float64 // ascending
	hi    []float64
	maxHi []float64 // maxHi[i] = max(hi[0..i])
	si    []int32
}

func newNumPostings(s *anonymize.Result, attr int, norm, theta float64) (*numPostings, error) {
	type entry struct {
		lo, hi float64
		si     int32
	}
	byWidth := make(map[float64][]entry)
	for si := range s.Classes {
		v := s.Classes[si].Sequence[attr]
		if v.Node != nil {
			return nil, fmt.Errorf("index: attribute %d: continuous metric over categorical value", attr)
		}
		byWidth[v.Iv.Width()] = append(byWidth[v.Iv.Width()], entry{lo: v.Iv.Lo, hi: v.Iv.Hi, si: int32(si)})
	}
	p := &numPostings{norm: norm, theta: theta}
	widths := make([]float64, 0, len(byWidth))
	for w := range byWidth {
		widths = append(widths, w)
	}
	sort.Float64s(widths) // deterministic level order
	for _, w := range widths {
		entries := byWidth[w]
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].lo != entries[j].lo {
				return entries[i].lo < entries[j].lo
			}
			return entries[i].si < entries[j].si
		})
		lv := numLevel{
			lo:    make([]float64, len(entries)),
			hi:    make([]float64, len(entries)),
			maxHi: make([]float64, len(entries)),
			si:    make([]int32, len(entries)),
		}
		for i, e := range entries {
			lv.lo[i], lv.hi[i], lv.si[i] = e.lo, e.hi, e.si
			lv.maxHi[i] = e.hi
			if i > 0 && lv.maxHi[i-1] > e.hi {
				lv.maxHi[i] = lv.maxHi[i-1]
			}
		}
		p.levels = append(p.levels, lv)
	}
	return p, nil
}

func (p *numPostings) admit(v vgh.Value, bs bitset) {
	if v.Node != nil {
		panic("distance: Euclidean applies to continuous values")
	}
	vi := v.Iv
	for li := range p.levels {
		lv := &p.levels[li]
		n := len(lv.lo)
		// Entries before start satisfy (vi.Lo − hi)/norm > θ: the query
		// interval lies more than θ·norm above them, the rule's exact
		// left-gap exclusion.
		start := sort.Search(n, func(i int) bool {
			return (vi.Lo-lv.maxHi[i])/p.norm <= p.theta
		})
		// Entries from end on satisfy (lo − vi.Hi)/norm > θ, the exact
		// right-gap exclusion.
		end := sort.Search(n, func(i int) bool {
			return (lv.lo[i]-vi.Hi)/p.norm > p.theta
		})
		for i := start; i < end; i++ {
			bs.set(int(lv.si[i]))
		}
	}
}
