package anonymize

import (
	"math"
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

// split is one candidate specialization of a partition on one attribute:
// the child groups the members fall into, keyed deterministically.
type split struct {
	attr   int // index into qids
	keys   []string
	groups map[string]*partition
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
	all := make([]int, d.Len())
	for i := range all {
		all[i] = i
	}
	seqs := make([]vgh.Sequence, d.Len())
	queue := []*partition{{seq: rootSequence(d.Schema(), qids), members: all}}
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		best := t.bestSplit(d, qids, p, k)
		if best == nil {
			for _, m := range p.members {
				seqs[m] = p.seq
			}
			continue
		}
		for _, key := range best.keys {
			queue = append(queue, best.groups[key])
		}
	}
	return buildResult(t.name, k, qids, seqs, nil), nil
}

// bestSplit returns the highest-scoring valid, beneficial specialization
// of p, or nil if none exists.
func (t *topDown) bestSplit(d *dataset.Dataset, qids []int, p *partition, k int) *split {
	var best *split
	bestScore := math.Inf(-1)
	for j := range qids {
		s := t.childGroups(d, qids, p, j)
		if s == nil {
			continue
		}
		valid := true
		for _, g := range s.groups {
			if len(g.members) < k || (t.extraValid != nil && !t.extraValid(g.members)) {
				valid = false
				break
			}
		}
		if !valid {
			continue
		}
		score, ok := t.score(d, p, s)
		if !ok {
			continue
		}
		if score > bestScore {
			bestScore, best = score, s
		}
	}
	return best
}

// childGroups computes the specialization of p on QID j, or nil when the
// value is already fully specialized (or capped for continuous values).
func (t *topDown) childGroups(d *dataset.Dataset, qids []int, p *partition, j int) *split {
	attr := d.Schema().Attr(qids[j])
	cur := p.seq[j]
	s := &split{attr: j, groups: make(map[string]*partition)}
	group := func(key string, v vgh.Value) *partition {
		g, ok := s.groups[key]
		if !ok {
			child := p.seq.Clone()
			child[j] = v
			g = &partition{seq: child}
			s.groups[key] = g
			s.keys = append(s.keys, key)
		}
		return g
	}
	switch attr.Kind {
	case dataset.Categorical:
		if cur.Node.IsLeaf() {
			return nil
		}
		h := attr.Hierarchy
		for _, m := range p.members {
			leaf := d.Record(m).Cells[qids[j]].Node
			child := h.GeneralizeToDepth(leaf, cur.Node.Depth()+1)
			g := group(child.Value, vgh.CatValue(child))
			g.members = append(g.members, m)
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
		// Members are grouped by the child interval's value and a key is
		// formatted once per distinct child, not per member; two values
		// that format alike (NaN) still merge through the string key.
		byIv := make(map[vgh.Interval]*partition)
		for _, m := range p.members {
			v := d.Record(m).Cells[qids[j]].Num
			// Below the leaf intervals, specialize to the exact values present.
			child := vgh.Point(v)
			if level < ih.Depth() {
				child = ih.At(v, level+1)
			}
			g := byIv[child]
			if g == nil {
				g = group(child.String(), vgh.NumValue(child))
				byIv[child] = g
			}
			g.members = append(g.members, m)
		}
	}
	// A "split" into zero groups cannot happen (members non-empty); a
	// single-group split is legal and keeps the partition together at a
	// more specific value.
	sort.Strings(s.keys)
	return s
}

// entropy returns the Shannon entropy (nats) of the member distribution
// across the split's child groups.
func (s *split) entropy() float64 {
	total := 0
	for _, g := range s.groups {
		total += len(g.members)
	}
	h := 0.0
	for _, g := range s.groups {
		p := float64(len(g.members)) / float64(total)
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// classEntropy returns the Shannon entropy of the Class-label distribution
// over the given records.
func classEntropy(d *dataset.Dataset, members []int) float64 {
	counts := make(map[string]int)
	for _, m := range members {
		counts[d.Record(m).Class]++
	}
	h := 0.0
	for _, c := range counts {
		p := float64(c) / float64(len(members))
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
			for _, g := range s.groups {
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
	all := make([]int, d.Len())
	for i := range all {
		all[i] = i
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
	recurse(&partition{seq: rootSequence(d.Schema(), qids), members: all})
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
			td := topDown{}
			s := td.childGroups(d, qids, p, j)
			if s == nil {
				continue
			}
			for _, key := range s.keys {
				groups = append(groups, s.groups[key])
			}
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
