package anonymize

import (
	"math"
	"slices"
	"sort"

	"pprl/internal/dataset"
	"pprl/internal/vgh"
)

// partition is a working set of records that currently share a
// generalization sequence.
type partition struct {
	seq     vgh.Sequence
	members []int
}

// split is one candidate specialization of a partition on one attribute,
// count-first: a pass over the members gives each a small child id and
// counts the children, which is all the ≥ k check and the entropy score
// read. Member lists exist only for a split someone asks them of
// (children): the winner, and every candidate of a scorer or validity
// check that reads members.
type split struct {
	attr   int         // index into qids
	vals   []vgh.Value // child id → specialized value, in first-seen order
	counts []int       // child id → number of members
	ids    []int32     // member position → child id
	parts  []*partition
}

// column is one QID's compact per-record encoding, built by each Anonymize
// call, from which specialize reads a member's child key in O(1).
type column struct {
	// code[m] is record m's key word. Categorical: its leaf's path code,
	// whose digit at depth d is the child ordinal of its depth-d ancestor.
	// Continuous: the number of its value in vals.
	code []uint32
	// Continuous only: the distinct values in first-seen order, and
	// levels[l-1][n], a dense first-seen numbering of the level-l intervals
	// (by vgh.IntervalHierarchy.Index, l = 1 … Depth) holding vals[n].
	// Below the leaf intervals the key is the value's own number.
	vals   []float64
	levels [][]uint32
}

// run is one Anonymize call's working state. It belongs to the call: one
// anonymizer value serves both holders and concurrent jobs.
type run struct {
	d    *dataset.Dataset
	qids []int
	cols []column
	// slot[key] is the child id + 1 of the candidate being built, zero for
	// a key not seen yet; seen lists the keys to zero afterwards.
	slot []int32
	seen []uint32
}

// newRun builds the columns of d's QIDs.
func newRun(d *dataset.Dataset, qids []int) *run {
	r := &run{d: d, qids: qids, cols: make([]column, len(qids))}
	recs := d.Records()
	keys := 0 // the widest key range: a node's children, or a QID's values
	for j, q := range qids {
		col := &r.cols[j]
		col.code = make([]uint32, len(recs))
		attr := d.Schema().Attr(q)
		if attr.Kind == dataset.Categorical {
			for m := range recs {
				col.code[m] = recs[m].Cells[q].Node.PathCode()
			}
			keys = max(keys, attr.Hierarchy.NumLeaves())
			continue
		}
		byValue := make(map[float64]uint32)
		for m := range recs {
			v := recs[m].Cells[q].Num
			if col.code[m] = number(byValue, v); int(col.code[m]) == len(col.vals) {
				col.vals = append(col.vals, v)
			}
		}
		ih := attr.Intervals
		col.levels = make([][]uint32, ih.Depth())
		for l := range col.levels {
			byIndex := make(map[int]uint32)
			col.levels[l] = make([]uint32, len(col.vals))
			for n, v := range col.vals {
				col.levels[l][n] = number(byIndex, ih.Index(v, l+1))
			}
		}
		keys = max(keys, len(col.vals))
	}
	r.slot = make([]int32, keys)
	return r
}

// number returns key's number in seen, giving a key not seen yet the next.
func number[K comparable](seen map[K]uint32, key K) uint32 {
	n, ok := seen[key]
	if !ok {
		n = uint32(len(seen))
		seen[key] = n
	}
	return n
}

// topDown is the shared recursive specialization engine behind TDS and
// MaxEntropy. Starting from the fully generalized partition, it repeatedly
// picks, per partition, the best valid specialization according to score,
// until no specialization is valid (every child group must keep ≥ k
// records) and beneficial (score reports ok).
type topDown struct {
	name string
	// score rates a candidate split; ok=false marks it not beneficial.
	score func(d *dataset.Dataset, p *partition, s *split) (float64, bool)
	// contLevelLimit caps how deep continuous attributes may specialize:
	// 0 means unlimited (leaf intervals, then exact points); a positive
	// limit L stops at interval level L, reproducing TDS's shallow
	// on-the-fly hierarchies for continuous attributes (the paper's
	// disadvantage (3) of TDS for blocking).
	contLevelLimit int
	// extraValid, when set, adds a per-child-group validity condition on
	// top of the ≥ k size requirement (used by the l-diversity
	// extension).
	extraValid func(members []int) bool
}

func (t *topDown) Name() string { return t.name }

// Anonymize implements Anonymizer.
func (t *topDown) Anonymize(d *dataset.Dataset, qids []int, k int) (*Result, error) {
	if err := validateInputs(d, qids, k); err != nil {
		return nil, err
	}
	r := newRun(d, qids)
	// Child-id scratch for the candidate being scored and for the best one
	// so far, and a copy of the winner's members while place lays them out
	// child by child in the partition's own list.
	ids := [2][]int32{make([]int32, d.Len()), make([]int32, d.Len())}
	scratch := make([]int, d.Len())
	var final []*partition
	queue := []*partition{{seq: rootSequence(d.Schema(), qids), members: allRecords(d)}}
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		switch best := t.bestSplit(r, p, k, &ids); {
		case best == nil:
			final = append(final, p)
		case best.parts != nil: // a scorer or validity check read them
			queue = append(queue, best.parts...)
		default:
			src := scratch[:len(p.members)]
			copy(src, p.members)
			queue = append(queue, best.place(p, src, p.members)...)
		}
	}
	return buildPartitions(t.name, k, qids, final, d.Len()), nil
}

// bestSplit returns the highest-scoring valid, beneficial specialization
// of p, or nil if none exists. ids[0] is where the next candidate's child
// ids go; the best candidate so far keeps ids[1].
func (t *topDown) bestSplit(r *run, p *partition, k int, ids *[2][]int32) *split {
	var best *split
	bestScore := math.Inf(-1)
	for j := range r.qids {
		s := t.specialize(r, p, j, ids[0])
		if s == nil || slices.Min(s.counts) < k {
			continue
		}
		if t.extraValid != nil && slices.ContainsFunc(s.children(p), func(g *partition) bool { return !t.extraValid(g.members) }) {
			continue
		}
		score, ok := t.score(r.d, p, s)
		if !ok {
			continue
		}
		if score > bestScore {
			bestScore, best = score, s
			ids[0], ids[1] = ids[1], ids[0]
		}
	}
	return best
}

// specialize computes the specialization of p on QID j into ids (allocated
// when too short), or nil when the value is already fully specialized (or
// capped for continuous values). A "split" into zero children cannot
// happen (members non-empty); a single-child split is legal and keeps the
// partition together at a more specific value.
//
// One pass writes each member's child key — the path-code digit one depth
// below the partition's node, or the number of the member's interval one
// level down (of its value, below the leaf intervals) — and a second turns
// keys into child ids through the slot table, in first-seen order.
func (t *topDown) specialize(r *run, p *partition, j int, ids []int32) *split {
	if cap(ids) < len(p.members) {
		ids = make([]int32, len(p.members))
	}
	col, cur, attr := &r.cols[j], p.seq[j], r.d.Schema().Attr(r.qids[j])
	s := &split{attr: j, ids: ids[:len(p.members)]}
	var child func(m int) vgh.Value // the value of record m's child
	switch attr.Kind {
	case dataset.Categorical:
		if cur.Node.IsLeaf() {
			return nil
		}
		digit := attr.Hierarchy.Digit(cur.Node.Depth() + 1)
		for x, m := range p.members {
			s.ids[x] = int32(digit.Of(col.code[m]))
		}
		child = func(m int) vgh.Value { return vgh.CatValue(cur.Node.Children[digit.Of(col.code[m])]) }
	case dataset.Continuous:
		ih := attr.Intervals
		level := ih.LevelOf(cur.Iv)
		limit := ih.Depth() + 1 // points allowed by default
		if t.contLevelLimit > 0 && t.contLevelLimit < limit {
			limit = t.contLevelLimit
		}
		if level >= limit {
			return nil
		}
		if level == ih.Depth() {
			// Below the leaf intervals, specialize to the exact values present.
			for x, m := range p.members {
				s.ids[x] = int32(col.code[m])
			}
			child = func(m int) vgh.Value { return vgh.NumValue(vgh.Point(col.vals[col.code[m]])) }
			break
		}
		numbers := col.levels[level]
		for x, m := range p.members {
			s.ids[x] = int32(numbers[col.code[m]])
		}
		child = func(m int) vgh.Value { return vgh.NumValue(ih.At(col.vals[col.code[m]], level+1)) }
	}
	for x, key := range s.ids {
		id := r.slot[key]
		if id == 0 {
			s.vals, s.counts = append(s.vals, child(p.members[x])), append(s.counts, 0)
			id = int32(len(s.vals))
			r.slot[key] = id
			r.seen = append(r.seen, uint32(key))
		}
		s.ids[x] = id - 1
		s.counts[id-1]++
	}
	for _, key := range r.seen {
		r.slot[key] = 0
	}
	r.seen = r.seen[:0]
	return s
}

// children materializes the split's member lists — each at its exact size,
// all from one new backing array, in child-id order — once.
func (s *split) children(p *partition) []*partition {
	if s.parts == nil {
		s.place(p, p.members, make([]int, len(p.members)))
	}
	return s.parts
}

// place lays src — p's members, in the order s.ids numbers them — out in
// dst child by child, each child's members in src's order, and returns the
// children over dst, each list capped at its own length.
func (s *split) place(p *partition, src, dst []int) []*partition {
	off := 0
	for c, n := range s.counts {
		seq := p.seq.Clone()
		seq[s.attr] = s.vals[c]
		s.parts = append(s.parts, &partition{seq: seq, members: dst[off : off : off+n]})
		off += n
	}
	for x, m := range src {
		g := s.parts[s.ids[x]]
		g.members = append(g.members, m)
	}
	return s.parts
}

// entropy returns the Shannon entropy (nats) of the member distribution
// across the split's children, summed in child-id order: a sum in map
// order could differ in the last ulp from run to run and flip a tie
// between two attributes — a different view, and a journal that refuses
// to resume.
func (s *split) entropy() float64 {
	h := 0.0
	for _, n := range s.counts {
		p := float64(n) / float64(len(s.ids))
		h -= p * math.Log(p)
	}
	return h
}

// classEntropy returns the Shannon entropy of the Class-label distribution
// over the given records, summed in sorted-label order (see entropy).
func classEntropy(d *dataset.Dataset, members []int) float64 {
	counts := make(map[string]int)
	for _, m := range members {
		counts[d.Record(m).Class]++
	}
	labels := make([]string, 0, len(counts))
	for label := range counts {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	h := 0.0
	for _, label := range labels {
		p := float64(counts[label]) / float64(len(members))
		h -= p * math.Log(p)
	}
	return h
}

// NewMaxEntropy builds the paper's anonymizer (Section VI-A): top-down
// specialization where every specialization is beneficial and, at each
// step, the attribute with maximum entropy is chosen, heuristically
// maximizing the number of distinct generalization sequences and hence
// blocking efficiency.
func NewMaxEntropy() Anonymizer {
	return &topDown{
		name: "Entropy",
		score: func(_ *dataset.Dataset, _ *partition, s *split) (float64, bool) {
			// Tie-break single-group splits (entropy 0) below real splits
			// but keep them beneficial, per the paper: "every
			// specialization is considered beneficial".
			return s.entropy(), true
		},
	}
}

// NewTDS builds Fung et al.'s top-down specialization anonymizer: the
// specialization maximizing information gain with respect to the class
// label is chosen; zero-gain specializations are not performed, and
// continuous attributes specialize only through a shallow on-the-fly
// hierarchy (level 1), reproducing the disadvantages the paper lists for
// blocking purposes.
func NewTDS() Anonymizer {
	return &topDown{
		name:           "TDS",
		contLevelLimit: 1,
		score: func(d *dataset.Dataset, p *partition, s *split) (float64, bool) {
			base := classEntropy(d, p.members)
			cond := 0.0
			for _, g := range s.children(p) {
				w := float64(len(g.members)) / float64(len(p.members))
				cond += w * classEntropy(d, g.members)
			}
			gain := base - cond
			return gain, gain > 1e-12
		},
	}
}

// NewMondrian builds a Mondrian-style multidimensional partitioner
// (LeFevre et al., related work): it recursively splits the partition on
// the attribute with the widest normalized spread — at the median for
// continuous attributes (arbitrary cut points, not hierarchy levels) and
// through the taxonomy for categorical ones. Included as an extension for
// ablation against the hierarchy-bound methods.
func NewMondrian() Anonymizer { return &mondrian{} }

type mondrian struct{}

func (m *mondrian) Name() string { return "Mondrian" }

func (m *mondrian) Anonymize(d *dataset.Dataset, qids []int, k int) (*Result, error) {
	if err := validateInputs(d, qids, k); err != nil {
		return nil, err
	}
	r := newRun(d, qids)
	seqs := make([]vgh.Sequence, d.Len())
	var recurse func(p *partition)
	recurse = func(p *partition) {
		if sub := m.bestSplit(r, p, k); sub != nil {
			for _, g := range sub {
				recurse(g)
			}
			return
		}
		for _, r := range p.members {
			seqs[r] = p.seq
		}
	}
	recurse(&partition{seq: rootSequence(d.Schema(), qids), members: allRecords(d)})
	return buildResult(m.Name(), k, qids, seqs, nil), nil
}

// bestSplit picks the widest-spread attribute whose split keeps every side
// at ≥ k records. Returns nil when the partition can no longer split.
func (m *mondrian) bestSplit(r *run, p *partition, k int) []*partition {
	d, qids := r.d, r.qids
	type cand struct {
		spread float64
		groups []*partition
	}
	var best *cand
	for j, q := range qids {
		attr := d.Schema().Attr(q)
		var groups []*partition
		var spread float64
		if attr.Kind == dataset.Continuous {
			groups, spread = m.medianSplit(d, q, j, p)
			spread /= attr.Intervals.Range()
		} else {
			s := (&topDown{}).specialize(r, p, j, nil)
			if s == nil {
				continue
			}
			groups = s.children(p)
			spread = float64(p.seq[j].Node.LeafCount()) / float64(attr.Hierarchy.NumLeaves())
		}
		if len(groups) < 2 {
			continue
		}
		ok := true
		for _, g := range groups {
			if len(g.members) < k {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if best == nil || spread > best.spread {
			best = &cand{spread: spread, groups: groups}
		}
	}
	if best == nil {
		return nil
	}
	return best.groups
}

// medianSplit cuts the partition's continuous values at the median into
// two sub-intervals and reports the value spread.
func (m *mondrian) medianSplit(d *dataset.Dataset, q, j int, p *partition) ([]*partition, float64) {
	vals := make([]float64, len(p.members))
	for i, r := range p.members {
		vals[i] = d.Record(r).Cells[q].Num
	}
	sort.Float64s(vals)
	lo, hi := vals[0], vals[len(vals)-1]
	if lo == hi {
		return nil, 0
	}
	median := vals[len(vals)/2]
	if median == lo {
		// Degenerate median; cut just above the minimum instead.
		i := sort.SearchFloat64s(vals, lo+1e-12)
		if i >= len(vals) {
			return nil, 0
		}
		median = vals[i]
	}
	cur := p.seq[j].Iv
	left := &partition{seq: p.seq.Clone()}
	right := &partition{seq: p.seq.Clone()}
	left.seq[j] = vgh.NumValue(vgh.Interval{Lo: cur.Lo, Hi: median})
	right.seq[j] = vgh.NumValue(vgh.Interval{Lo: median, Hi: cur.Hi})
	for _, r := range p.members {
		if d.Record(r).Cells[q].Num < median {
			left.members = append(left.members, r)
		} else {
			right.members = append(right.members, r)
		}
	}
	return []*partition{left, right}, hi - lo
}
