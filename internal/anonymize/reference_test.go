package anonymize

import (
	"math"
	"sort"

	"pprl/internal/dataset"
	"pprl/internal/vgh"
)

// The materialize-everything specialization engine the count-first one in
// topdown.go replaced, kept as the differential reference
// (TestCountFirstMatchesReference): every candidate attribute's member
// lists are built, keyed by the child's formatted value, and the result is
// assembled from one Sequence.Key per record. The only change from the
// engine as it shipped is that entropies are summed in first-seen child
// order — the order the count-first engine uses — instead of map order, so
// the comparison cannot flake on a last-ulp tie.

type refSplit struct {
	keys   []string // sorted
	seen   []string // first-seen order
	groups map[string]*partition
}

type refTopDown struct {
	name           string
	score          func(d *dataset.Dataset, p *partition, s *refSplit) (float64, bool)
	contLevelLimit int
	extraValid     func(members []int) bool
}

func (t *refTopDown) Name() string { return t.name }

func (t *refTopDown) Anonymize(d *dataset.Dataset, qids []int, k int) (*Result, error) {
	if err := validateInputs(d, qids, k); err != nil {
		return nil, err
	}
	seqs := make([]vgh.Sequence, d.Len())
	queue := []*partition{{seq: rootSequence(d.Schema(), qids), members: allRecords(d)}}
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

func (t *refTopDown) bestSplit(d *dataset.Dataset, qids []int, p *partition, k int) *refSplit {
	var best *refSplit
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

func (t *refTopDown) childGroups(d *dataset.Dataset, qids []int, p *partition, j int) *refSplit {
	attr := d.Schema().Attr(qids[j])
	cur := p.seq[j]
	s := &refSplit{groups: make(map[string]*partition)}
	group := func(key string, v vgh.Value) *partition {
		g, ok := s.groups[key]
		if !ok {
			child := p.seq.Clone()
			child[j] = v
			g = &partition{seq: child}
			s.groups[key] = g
			s.keys = append(s.keys, key)
			s.seen = append(s.seen, key)
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
		limit := ih.Depth() + 1
		if t.contLevelLimit > 0 && t.contLevelLimit < limit {
			limit = t.contLevelLimit
		}
		if level >= limit {
			return nil
		}
		for _, m := range p.members {
			v := d.Record(m).Cells[qids[j]].Num
			child := vgh.Point(v)
			if level < ih.Depth() {
				child = ih.At(v, level+1)
			}
			g := group(child.String(), vgh.NumValue(child))
			g.members = append(g.members, m)
		}
	}
	sort.Strings(s.keys)
	return s
}

func (s *refSplit) entropy() float64 {
	total := 0
	for _, g := range s.groups {
		total += len(g.members)
	}
	h := 0.0
	for _, key := range s.seen {
		p := float64(len(s.groups[key].members)) / float64(total)
		h -= p * math.Log(p)
	}
	return h
}

func refEntropyScore(_ *dataset.Dataset, _ *partition, s *refSplit) (float64, bool) {
	return s.entropy(), true
}

// Reference returns the reference engine for a method of this package:
// "Entropy", "TDS", "Mondrian", or "Entropy+l" with its l.
func Reference(method string, l int) Anonymizer {
	switch method {
	case "Entropy":
		return &refTopDown{name: "Entropy", score: refEntropyScore}
	case "TDS":
		return &refTopDown{name: "TDS", contLevelLimit: 1,
			score: func(d *dataset.Dataset, p *partition, s *refSplit) (float64, bool) {
				cond := 0.0
				for _, key := range s.seen {
					g := s.groups[key]
					cond += float64(len(g.members)) / float64(len(p.members)) * classEntropy(d, g.members)
				}
				gain := classEntropy(d, p.members) - cond
				return gain, gain > 1e-12
			}}
	case "Entropy+l":
		return refLDiverse{l}
	case "Mondrian":
		return refMondrian{&mondrian{}}
	}
	panic("no reference engine for " + method)
}

type refLDiverse struct{ l int }

func (a refLDiverse) Name() string { return NewLDiverseEntropy(a.l).Name() }

func (a refLDiverse) Anonymize(d *dataset.Dataset, qids []int, k int) (*Result, error) {
	engine := &refTopDown{name: a.Name(), score: refEntropyScore,
		extraValid: func(members []int) bool { return distinctClasses(d, members) >= a.l }}
	return engine.Anonymize(d, qids, k)
}

// refMondrian is Mondrian with its categorical split taken from the
// reference childGroups; the median split is shared with the live engine.
type refMondrian struct{ *mondrian }

func (m refMondrian) Anonymize(d *dataset.Dataset, qids []int, k int) (*Result, error) {
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

func (m refMondrian) bestSplit(d *dataset.Dataset, qids []int, p *partition, k int) []*partition {
	var best []*partition
	var bestSpread float64
	for j, q := range qids {
		attr := d.Schema().Attr(q)
		var groups []*partition
		var spread float64
		if attr.Kind == dataset.Continuous {
			groups, spread = m.medianSplit(d, q, j, p)
			spread /= attr.Intervals.Range()
		} else {
			s := (&refTopDown{}).childGroups(d, qids, p, j)
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
		if ok && (best == nil || spread > bestSpread) {
			best, bestSpread = groups, spread
		}
	}
	return best
}
