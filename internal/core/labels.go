package core

import (
	"math/bits"

	"pprl/internal/anonymize"
	"pprl/internal/blocking"
)

// labelStore holds per-pair verdicts group-major: each class pair that has
// received a label owns two bitsets over the row-major |A| × |B| walk of
// its members, allocated on its first label. The resolve kernel walks
// group-major and delivers row spans, so setSpan caches the last group,
// pays its array reads once per span and files up to 64 pairs a word;
// memory is 2 bits × pairs of the groups actually touched, however large
// the allowance. A store is keyed by
// (ClassOf[i], ClassOf[j]) and sized from the two classes, so any pair is
// storable — a journaled purchase the walk never met included.
type labelStore struct {
	r, s       *anonymize.Result
	posA, posB []int32 // record → its position in its class's Members
	groups     map[[2]int32]*labelGroup
	lastKey    [2]int32
	last       *labelGroup
	n, matched int64 // labeled pairs, and those labeled match
}

// labelGroup is one class pair's labels: bit row·cols+col of known says
// the pair has a label, the same bit of matched (⊆ known) its verdict.
type labelGroup struct {
	known, matched []uint64
	cols, n        int
}

// memberPositions inverts a view's Members lists.
func memberPositions(v *anonymize.Result) []int32 {
	pos := make([]int32, len(v.ClassOf))
	for _, c := range v.Classes {
		for p, m := range c.Members {
			pos[m] = int32(p)
		}
	}
	return pos
}

func newLabelStore(block *blocking.Result, posA, posB []int32) *labelStore {
	return &labelStore{r: block.R, s: block.S, posA: posA, posB: posB, groups: make(map[[2]int32]*labelGroup)}
}

// setSpan records the verdicts of record i against js, a contiguous stretch
// of one class's Members as the resolve kernel delivers it (a lone pair is
// the span of one): one group lookup and one row base for the whole span,
// then one 64-bit word at a time — the word's verdict bits are gathered,
// known is set with one mask, and the counts move by popcount. Setting a
// pair again overwrites the verdict and counts once.
func (s *labelStore) setSpan(i int, js []int, verdicts []bool) {
	key := [2]int32{int32(s.r.ClassOf[i]), int32(s.s.ClassOf[js[0]])}
	g := s.last
	if g == nil || key != s.lastKey {
		if g = s.groups[key]; g == nil {
			rows, cols := s.r.Classes[key[0]].Size(), s.s.Classes[key[1]].Size()
			words := make([]uint64, 2*((rows*cols+63)/64))
			g = &labelGroup{known: words[:len(words)/2], matched: words[len(words)/2:], cols: cols}
			s.groups[key] = g
		}
		s.lastKey, s.last = key, g
	}
	bit := int(s.posA[i])*g.cols + int(s.posB[js[0]])
	for len(verdicts) > 0 {
		w, lo := bit>>6, bit&63
		n := min(64-lo, len(verdicts))
		var v uint64
		for x, matched := range verdicts[:n] {
			var b uint64
			if matched {
				b = 1
			}
			v |= b << (lo + x)
		}
		m := (^uint64(0) >> (64 - n)) << lo
		fresh := bits.OnesCount64(m &^ g.known[w])
		g.n += fresh
		s.n += int64(fresh)
		s.matched += int64(bits.OnesCount64(v) - bits.OnesCount64(g.matched[w]&m))
		g.known[w] |= m
		g.matched[w] = g.matched[w]&^m | v
		bit, verdicts = bit+n, verdicts[n:]
	}
}

// get reports the stored verdict of pair (i, j) and whether it has one.
func (s *labelStore) get(i, j int) (matched, ok bool) {
	g := s.group(s.r.ClassOf[i], s.s.ClassOf[j])
	if g == nil {
		return false, false
	}
	w, m := g.bit(s.posA[i], s.posB[j])
	return g.matched[w]&m != 0, g.known[w]&m != 0
}

// bit locates the pair at (row, col) of the group's walk: word and mask.
func (g *labelGroup) bit(row, col int32) (int, uint64) {
	bit := int(row)*g.cols + int(col)
	return bit >> 6, 1 << (bit & 63)
}

// group returns class pair (ri, si)'s labels; nil when it has none.
func (s *labelStore) group(ri, si int) *labelGroup {
	return s.groups[[2]int32{int32(ri), int32(si)}]
}

// counts returns how many pairs of the group are labeled, and how many of
// those match; a nil group has none.
func (g *labelGroup) counts() (labeled, matched int) {
	if g == nil {
		return 0, 0
	}
	for _, w := range g.matched {
		matched += bits.OnesCount64(w)
	}
	return g.n, matched
}
