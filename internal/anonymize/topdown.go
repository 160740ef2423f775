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
	// Child-id scratch for the candidate being scored and for the best one
	// so far. It belongs to this call: one anonymizer value serves both
	// holders and concurrent jobs.
	ids := [2][]int32{make([]int32, d.Len()), make([]int32, d.Len())}
	var final []*partition
	queue := []*partition{{seq: rootSequence(d.Schema(), qids), members: allRecords(d)}}
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if best := t.bestSplit(d, qids, p, k, &ids); best != nil {
			queue = append(queue, best.children(p)...)
		} else {
			final = append(final, p)
		}
	}
	return buildPartitions(t.name, k, qids, final, d.Len()), nil
}

// bestSplit returns the highest-scoring valid, beneficial specialization
// of p, or nil if none exists. ids[0] is where the next candidate's child
// ids go; the best candidate so far keeps ids[1].
func (t *topDown) bestSplit(d *dataset.Dataset, qids []int, p *partition, k int, ids *[2][]int32) *split {
	var best *split
	bestScore := math.Inf(-1)
	for j := range qids {
		s := t.specialize(d, qids, p, j, ids[0])
		if s == nil || slices.Min(s.counts) < k {
			continue
		}
		if t.extraValid != nil && slices.ContainsFunc(s.children(p), func(g *partition) bool { return !t.extraValid(g.members) }) {
			continue
		}
		score, ok := t.score(d, p, s)
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
func (t *topDown) specialize(d *dataset.Dataset, qids []int, p *partition, j int, ids []int32) *split {
	if cap(ids) < len(p.members) {
		ids = make([]int32, len(p.members))
	}
	attr := d.Schema().Attr(qids[j])
	cur := p.seq[j]
	s := &split{attr: j, ids: ids[:len(p.members)]}
	child := func(v vgh.Value) int32 {
		s.vals, s.counts = append(s.vals, v), append(s.counts, 0)
		return int32(len(s.vals) - 1)
	}
	switch attr.Kind {
	case dataset.Categorical:
		if cur.Node.IsLeaf() {
			return nil
		}
		// A node has few children: a scan over the ones seen so far
		// beats hashing the pointer.
		h, depth := attr.Hierarchy, cur.Node.Depth()+1
		for x, m := range p.members {
			node := h.GeneralizeToDepth(d.Record(m).Cells[qids[j]].Node, depth)
			id := int32(slices.IndexFunc(s.vals, func(v vgh.Value) bool { return v.Node == node }))
			if id < 0 {
				id = child(vgh.CatValue(node))
			}
			s.ids[x] = id
			s.counts[id]++
		}
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
		// Children are keyed by the interval's value. A NaN cell never
		// equals itself, so it is a child of its own and a split over it
		// fails the ≥ k check.
		byIv := make(map[vgh.Interval]int32)
		for x, m := range p.members {
			v := d.Record(m).Cells[qids[j]].Num
			// Below the leaf intervals, specialize to the exact values present.
			iv := vgh.Point(v)
			if level < ih.Depth() {
				iv = ih.At(v, level+1)
			}
			id, ok := byIv[iv]
			if !ok {
				id = child(vgh.NumValue(iv))
				byIv[iv] = id
			}
			s.ids[x] = id
			s.counts[id]++
		}
	}
	return s
}

// children materializes the split's member lists — each at its exact size,
// all from one backing array, in child-id order — once.
func (s *split) children(p *partition) []*partition {
	if s.parts != nil {
		return s.parts
	}
	backing, off := make([]int, len(p.members)), 0
	for c, n := range s.counts {
		seq := p.seq.Clone()
		seq[s.attr] = s.vals[c]
		s.parts = append(s.parts, &partition{seq: seq, members: backing[off : off : off+n]})
		off += n
	}
	for x, m := range p.members {
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
	seqs := make([]vgh.Sequence, d.Len())
	var recurse func(p *partition)
	recurse = func(p *partition) {
		if sub := m.bestSplit(d, qids, p, k); sub != nil {
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
func (m *mondrian) bestSplit(d *dataset.Dataset, qids []int, p *partition, k int) []*partition {
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
			s := (&topDown{}).specialize(d, qids, p, j, nil)
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
