package index

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"pprl/internal/blocking"
	"pprl/internal/distance"
	"pprl/internal/vgh"
)

// postings is one attribute's admission structure over a growing bin
// list. insert files a bin under its value; admit sets the bit of every
// bin whose infimum distance to v on this attribute is not provably over
// the threshold.
type postings interface {
	insert(v vgh.Value, si int32) error
	admit(v vgh.Value, bs bitset)
}

// Live is the inverted hierarchy index over a growing list of
// generalization sequences (bins), and the only one: Stream fills one
// with a view's classes and probes it with the other view's, and the
// incremental subsystem keeps one per side for records that arrive
// forever, absorbing a new bin without a rebuild. Both posting kinds are
// append-friendly — categorical lists grow at the tail, numeric levels
// splice one entry into a sorted run — so filling one Insert at a time
// costs what a bulk build would.
//
// Concurrency: Insert takes the write lock and bumps the epoch (the bin
// count); Candidates runs under the read lock against whatever epoch is
// current, so a reader always sees a consistent snapshot (never a
// half-inserted bin).
//
// Candidates asks each attribute once per value and epoch: the admission
// set of (attribute, value) is memoized until the next Insert, so the bins
// of one batch — or the classes of one view — which share a few dozen
// values an attribute walk the postings once per value, not once per bin.
type Live struct {
	mu sync.RWMutex
	// bins counts the inserted sequences; it is also the epoch.
	bins int
	// attrs[i] is attribute i's postings; nil when the attribute cannot
	// constrain candidates (threshold admits everything, or a metric the
	// index does not understand).
	attrs       []postings
	constrained []int
	// memo[i] maps a value of attribute i to its admission set at epoch
	// memoBins; the first reader of a later epoch drops it. Readers share
	// it, so memoMu guards it.
	memoMu   sync.Mutex
	memoBins int
	memo     []map[valueKey]admission
}

// admission is one memoized admission set and its size.
type admission struct {
	set bitset
	n   int64
}

// valueKey identifies an attribute value for the memo: the node of a
// categorical value, the bit patterns of a continuous one's bounds — bits,
// not floats, so that a NaN bound, unequal to itself, finds its entry
// instead of adding one per call.
type valueKey struct {
	node   *vgh.Node
	lo, hi uint64
}

func keyOf(v vgh.Value) valueKey {
	if v.Node != nil {
		return valueKey{node: v.Node}
	}
	return valueKey{lo: math.Float64bits(v.Iv.Lo), hi: math.Float64bits(v.Iv.Hi)}
}

// NewLive builds an empty live index for the rule. The rule's attribute
// order must correspond to the sequences' value order.
func NewLive(rule *blocking.Rule) *Live {
	l := &Live{attrs: make([]postings, rule.Len())}
	for i := 0; i < rule.Len(); i++ {
		theta := rule.Threshold(i)
		switch m := rule.Metric(i).(type) {
		case distance.Hamming:
			// Hamming distances are 0 or 1, so θ ≥ 1 admits every pair.
			if theta >= 1 {
				continue
			}
			l.attrs[i] = &catPostings{
				under: make(map[*vgh.Node][]int32),
				at:    make(map[*vgh.Node][]int32),
			}
		case distance.Euclidean:
			// A non-positive normalization factor makes the rule's inf
			// non-positive for every pair: nothing is excludable.
			if m.Norm <= 0 {
				continue
			}
			l.attrs[i] = &numPostings{norm: m.Norm, theta: theta}
		default:
			// Unknown metric: no exclusion model, leave unconstrained.
		}
	}
	l.memo = make([]map[valueKey]admission, rule.Len())
	for i, p := range l.attrs {
		if p != nil {
			l.constrained = append(l.constrained, i)
			l.memo[i] = make(map[valueKey]admission)
		}
	}
	return l
}

// Insert adds one bin and returns its index. The caller owns bin
// identity: inserting the same sequence twice creates two bins, so
// deduplicate by sequence key first (the incremental engine does).
func (l *Live) Insert(seq vgh.Sequence) (int, error) {
	if len(seq) != len(l.attrs) {
		return 0, fmt.Errorf("index: sequence has %d values, rule has %d attributes", len(seq), len(l.attrs))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	si := int32(l.bins)
	for _, ai := range l.constrained {
		if err := l.attrs[ai].insert(seq[ai], si); err != nil {
			return 0, fmt.Errorf("index: attribute %d: %w", ai, err)
		}
	}
	l.bins++
	return int(si), nil
}

// Candidates calls emit, in ascending bin order, for every indexed bin
// the per-attribute admission sets do not exclude for seq. Admission is
// an over-approximation: the caller must still label each
// candidate; what is guaranteed is that every excluded bin is a certain
// NonMatch under the slack rule and shares no value with seq.
func (l *Live) Candidates(seq vgh.Sequence, emit func(si int)) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.bins == 0 {
		return
	}
	cand := newBitset(l.bins)
	l.intersect(seq, cand, nil)
	cand.forEach(emit)
}

// intersect writes into cand — sized for the current bin count — the AND
// of the admission sets of seq's values, taking each from the memo or, on
// the epoch's first ask, from the postings into the memo. When counts is
// non-nil, counts[i] grows by the size of attribute i's set. The caller
// holds the read lock.
func (l *Live) intersect(seq vgh.Sequence, cand bitset, counts []int64) {
	if len(l.constrained) == 0 {
		for si := 0; si < l.bins; si++ {
			cand.set(si)
		}
		return
	}
	l.memoMu.Lock()
	defer l.memoMu.Unlock()
	if l.memoBins != l.bins {
		for _, ai := range l.constrained {
			clear(l.memo[ai])
		}
		l.memoBins = l.bins
	}
	for k, ai := range l.constrained {
		key := keyOf(seq[ai])
		a, ok := l.memo[ai][key]
		if !ok {
			a.set = newBitset(l.bins)
			l.attrs[ai].admit(seq[ai], a.set)
			a.n = a.set.popcount()
			l.memo[ai][key] = a
		}
		if counts != nil {
			counts[ai] += a.n
		}
		if k == 0 {
			copy(cand, a.set)
		} else {
			cand.and(a.set)
		}
	}
}

// catPostings indexes a categorical attribute. Hamming's infimum is 0
// exactly when the two nodes' leaf ranges overlap, i.e. one is an
// ancestor of the other (vgh.Node.Overlaps); with θ < 1 every
// non-overlapping pair is excludable. The admissible bins for a query
// node v are those whose node lies at or below v (the "under" list of v
// itself) plus those whose node is a proper ancestor of v (the "at" lists
// along v's ancestor path) — two disjoint walks that never touch the rest
// of the hierarchy. Both lists grow at the tail, and admission never
// depends on list order.
type catPostings struct {
	// under[n] lists the bins whose node is n or a descendant of n.
	under map[*vgh.Node][]int32
	// at[n] lists the bins whose node is exactly n.
	at map[*vgh.Node][]int32
}

func (p *catPostings) insert(v vgh.Value, si int32) error {
	if v.Node == nil {
		return fmt.Errorf("categorical metric over continuous value")
	}
	p.at[v.Node] = append(p.at[v.Node], si)
	for n := v.Node; n != nil; n = n.Parent {
		p.under[n] = append(p.under[n], si)
	}
	return nil
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

// numPostings indexes a continuous attribute. Bins are bucketed by
// interval width (one level per hierarchy level, plus one for fully
// specialized points), each level kept sorted by (Lo, bin); a query finds
// the admissible run of each level with two binary searches, and an
// insert splices one entry in and repairs the maxHi prefix maximum from
// the insertion point rightward.
//
// Exclusion uses the exact float expressions of Euclidean.Bounds — the
// gap (other.Lo − iv.Hi, or iv.Lo − other.Hi) divided by Norm — so a bin
// is dropped only when the rule's own inf computation would exceed θ. The
// left boundary searches over the prefix maximum of Hi rather than Hi
// itself, which keeps the predicate monotone even if float rounding makes
// Hi not strictly ordered within a level; any slack this introduces only
// admits extra candidates, never excludes one.
type numPostings struct {
	norm, theta float64
	widths      []float64 // ascending, parallel to levels
	levels      []numLevel
}

type numLevel struct {
	lo    []float64 // ascending
	hi    []float64
	maxHi []float64 // maxHi[i] = max(hi[0..i])
	si    []int32
}

func (p *numPostings) insert(v vgh.Value, si int32) error {
	if v.Node != nil {
		return fmt.Errorf("continuous metric over categorical value")
	}
	w := v.Iv.Width()
	li := sort.SearchFloat64s(p.widths, w)
	if li == len(p.widths) || p.widths[li] != w {
		p.widths = append(p.widths, 0)
		copy(p.widths[li+1:], p.widths[li:])
		p.widths[li] = w
		p.levels = append(p.levels, numLevel{})
		copy(p.levels[li+1:], p.levels[li:])
		p.levels[li] = numLevel{}
	}
	lv := &p.levels[li]
	n := len(lv.lo)
	at := sort.Search(n, func(i int) bool {
		if lv.lo[i] != v.Iv.Lo {
			return lv.lo[i] > v.Iv.Lo
		}
		return lv.si[i] > si
	})
	lv.lo = append(lv.lo, 0)
	copy(lv.lo[at+1:], lv.lo[at:])
	lv.lo[at] = v.Iv.Lo
	lv.hi = append(lv.hi, 0)
	copy(lv.hi[at+1:], lv.hi[at:])
	lv.hi[at] = v.Iv.Hi
	lv.si = append(lv.si, 0)
	copy(lv.si[at+1:], lv.si[at:])
	lv.si[at] = si
	// maxHi must stay the prefix maximum of hi; everything from the
	// insertion point on may have changed.
	lv.maxHi = append(lv.maxHi, 0)
	for i := at; i < len(lv.hi); i++ {
		m := lv.hi[i]
		if i > 0 && lv.maxHi[i-1] > m {
			m = lv.maxHi[i-1]
		}
		lv.maxHi[i] = m
	}
	return nil
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
