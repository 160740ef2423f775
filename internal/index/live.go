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

// livePostings is one attribute's admission structure over a growing bin
// list. It mirrors postings but supports insertion; admit carries the
// same soundness contract (exclude only when inf > θ is provable).
type livePostings interface {
	insert(v vgh.Value, si int32) error
	admit(v vgh.Value, bs bitset)
}

// Live is the insertable form of Index: an inverted hierarchy index over
// a growing list of generalization sequences (bins), built for the
// incremental subsystem where records arrive forever and the candidate
// structure must absorb a new bin without a rebuild. Both posting kinds
// are append-friendly — categorical lists grow at the tail, numeric
// levels splice one entry into a sorted run — so Insert is cheap relative
// to reconstructing the whole index per batch.
//
// Concurrency: Insert takes the write lock and bumps the epoch; Candidates
// runs under the read lock against whatever epoch is current, so a reader
// always sees a consistent snapshot (never a half-inserted bin). The
// epoch lets readers detect growth between queries without holding the
// lock across both.
//
// Candidates asks each attribute once per value and epoch: the admission
// set of (attribute, value) is memoized until the next Insert, so the bins
// of one batch — which share a few dozen values an attribute — walk the
// postings once per value, not once per bin.
type Live struct {
	mu    sync.RWMutex
	rule  *blocking.Rule
	epoch uint64
	seqs  []vgh.Sequence
	// attrs[i] is attribute i's postings; nil when the attribute cannot
	// constrain candidates, exactly as in Index.
	attrs       []livePostings
	constrained []int
	// memo[i] maps a value of attribute i to its admission set at epoch
	// memoEpoch; the first reader of a later epoch drops it. Readers share
	// it, so memoMu guards it.
	memoMu    sync.Mutex
	memoEpoch uint64
	memo      []map[valueKey]bitset
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
	l := &Live{rule: rule, attrs: make([]livePostings, rule.Len())}
	for i := 0; i < rule.Len(); i++ {
		theta := rule.Threshold(i)
		switch m := rule.Metric(i).(type) {
		case distance.Hamming:
			if theta >= 1 {
				continue
			}
			l.attrs[i] = &liveCatPostings{
				under: make(map[*vgh.Node][]int32),
				at:    make(map[*vgh.Node][]int32),
			}
		case distance.Euclidean:
			if m.Norm <= 0 {
				continue
			}
			l.attrs[i] = &liveNumPostings{norm: m.Norm, theta: theta}
		default:
			// Unknown metric: no exclusion model, leave unconstrained.
		}
	}
	l.memo = make([]map[valueKey]bitset, rule.Len())
	for i, p := range l.attrs {
		if p != nil {
			l.constrained = append(l.constrained, i)
			l.memo[i] = make(map[valueKey]bitset)
		}
	}
	return l
}

// Insert adds one bin and returns its index. The caller owns bin
// identity: inserting the same sequence twice creates two bins, so
// deduplicate by sequence key first (the incremental engine does).
func (l *Live) Insert(seq vgh.Sequence) (int, error) {
	if len(seq) != l.rule.Len() {
		return 0, fmt.Errorf("index: sequence has %d values, rule has %d attributes", len(seq), l.rule.Len())
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	si := int32(len(l.seqs))
	for _, ai := range l.constrained {
		if err := l.attrs[ai].insert(seq[ai], si); err != nil {
			return 0, err
		}
	}
	l.seqs = append(l.seqs, seq)
	l.epoch++
	return int(si), nil
}

// Len returns the number of bins indexed.
func (l *Live) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.seqs)
}

// Epoch returns the generation counter: it advances by one per Insert,
// so two equal readings bracket a window in which the candidate sets a
// reader computed are still exhaustive.
func (l *Live) Epoch() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.epoch
}

// Candidates calls emit, in ascending bin order, for every indexed bin
// the per-attribute admission sets do not exclude for seq. As with
// Index, admission is an over-approximation: the caller must still run
// the decision rule (or the DP intersection predicate) on each candidate;
// what is guaranteed is that every excluded bin is a certain NonMatch.
func (l *Live) Candidates(seq vgh.Sequence, emit func(si int)) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	n := len(l.seqs)
	if n == 0 {
		return
	}
	if len(l.constrained) == 0 {
		for si := 0; si < n; si++ {
			emit(si)
		}
		return
	}
	l.intersect(seq, n).forEach(emit)
}

// intersect ANDs the admission sets of seq's values into a fresh bitset of
// n bins, taking each from the memo — or, on the epoch's first ask, from
// the postings into the memo. The caller holds the read lock.
func (l *Live) intersect(seq vgh.Sequence, n int) bitset {
	l.memoMu.Lock()
	defer l.memoMu.Unlock()
	if l.memoEpoch != l.epoch {
		for _, ai := range l.constrained {
			clear(l.memo[ai])
		}
		l.memoEpoch = l.epoch
	}
	cand := newBitset(n)
	for k, ai := range l.constrained {
		key := keyOf(seq[ai])
		set, ok := l.memo[ai][key]
		if !ok {
			set = newBitset(n)
			l.attrs[ai].admit(seq[ai], set)
			l.memo[ai][key] = set
		}
		if k == 0 {
			copy(cand, set)
		} else {
			cand.and(set)
		}
	}
	return cand
}

// Sequence returns the sequence of bin si.
func (l *Live) Sequence(si int) vgh.Sequence {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.seqs[si]
}

// liveCatPostings is catPostings with insertion: both the "under" lists
// along the ancestor path and the exact-node "at" list grow at the tail,
// and admission never depends on list order.
type liveCatPostings struct {
	under map[*vgh.Node][]int32
	at    map[*vgh.Node][]int32
}

func (p *liveCatPostings) insert(v vgh.Value, si int32) error {
	if v.Node == nil {
		return fmt.Errorf("index: categorical metric over continuous value")
	}
	p.at[v.Node] = append(p.at[v.Node], si)
	for n := v.Node; n != nil; n = n.Parent {
		p.under[n] = append(p.under[n], si)
	}
	return nil
}

func (p *liveCatPostings) admit(v vgh.Value, bs bitset) {
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

// liveNumPostings is numPostings with insertion: each width level keeps
// its (lo, hi, maxHi, si) arrays sorted by (lo, si); an insert splices
// one entry in and repairs the maxHi prefix maximum from the insertion
// point rightward. The admit queries are byte-for-byte the exact float
// expressions of the static index, so live and rebuilt-from-scratch
// admission sets are identical.
type liveNumPostings struct {
	norm, theta float64
	widths      []float64 // ascending, parallel to levels
	levels      []numLevel
}

func (p *liveNumPostings) insert(v vgh.Value, si int32) error {
	if v.Node != nil {
		return fmt.Errorf("index: continuous metric over categorical value")
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

func (p *liveNumPostings) admit(v vgh.Value, bs bitset) {
	if v.Node != nil {
		panic("distance: Euclidean applies to continuous values")
	}
	vi := v.Iv
	for li := range p.levels {
		lv := &p.levels[li]
		n := len(lv.lo)
		start := sort.Search(n, func(i int) bool {
			return (vi.Lo-lv.maxHi[i])/p.norm <= p.theta
		})
		end := sort.Search(n, func(i int) bool {
			return (lv.lo[i]-vi.Hi)/p.norm > p.theta
		})
		for i := start; i < end; i++ {
			bs.set(int(lv.si[i]))
		}
	}
}
