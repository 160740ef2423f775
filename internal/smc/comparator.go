package smc

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Comparator answers "does Alice's record i match Bob's record j?" for
// pairs the blocking step could not decide. Implementations count
// invocations, the paper's cost unit (Section VI restricts the cost model
// to the number of SMC protocol invocations). Comparators are not safe
// for concurrent use.
type Comparator interface {
	// Compare resolves one record pair.
	Compare(i, j int) (bool, error)
	// CompareBatch is the purchase path the engines use: verdict x answers
	// pairs[x], and the verdicts are only valid until the next call.
	// Consecutive pairs that share Alice's record are bought as one run —
	// one share set from Alice for all of them — so a caller walking A × B
	// should hand the pairs over in walk order.
	CompareBatch(pairs [][2]int) ([]bool, error)
	// Invocations returns the number of comparisons performed so far.
	Invocations() int64
	// BytesTransferred returns total protocol traffic; zero for the
	// plaintext oracle.
	BytesTransferred() int64
	// Close releases protocol resources.
	Close() error
}

// PlainComparator is the plaintext oracle: it evaluates exactly the
// integer arithmetic of the secure circuit (Spec.Matches) with zero
// cryptographic cost. Experiments at paper scale use it while charging
// the cost model per invocation; TestSecureMatchesPlain pins its answers
// to the real protocol's.
//
// The spec is compiled once into radius tests: a pair passes a threshold
// attribute iff |a−b| ≤ ⌊√T⌋ and an equality one iff |a−b| ≤ 0, exact for
// every int64; an always-true attribute is dropped. The first comparison
// lays every record out as one word of fields, one per test (pack), so a
// pair's verdict is one subtraction, one addition and two masks; a test
// whose field does not fit is checked on the rows after the word.
type PlainComparator struct {
	alice, bob  [][]int64
	terms       []term
	wa, wb      []uint64 // Alice's and Bob's records packed; nil until the first comparison
	word        word
	rest        []term // the tests not in the word
	invocations int64
	verdicts    []bool
}

// word is the packed layout's masks: bit F of every field, bit F+1, and
// the addend that tests each field's upper limit.
type word struct{ hf, hg, m uint64 }

// term is one compiled attribute: a pair passes it iff |a−b| < lim on
// column col — lim is ⌊√T⌋ + 1, 1 for equality, and 0 for a threshold
// below zero, which nothing passes.
type term struct {
	col int
	lim uint64
}

// NewPlainComparator builds the oracle over both holders' encoded records:
// O(d) work for d attributes, none per record.
func NewPlainComparator(spec *Spec, alice, bob [][]int64) *PlainComparator {
	p := &PlainComparator{alice: alice, bob: bob}
	for col, a := range spec.Attrs {
		switch {
		case a.Mode == ModeEquality:
			p.terms = append(p.terms, term{col: col, lim: 1})
		case a.Mode == ModeThreshold && a.T < 0:
			p.terms = append(p.terms, term{col: col})
		case a.Mode == ModeThreshold:
			p.terms = append(p.terms, term{col: col, lim: uint64(Isqrt(a.T)) + 1})
		}
	}
	return p
}

// pack lays every record out as one word (DESIGN.md §22). A term on a
// column spanning R = max − min over both relations takes a field of F+2
// bits, 2^F > max(R+lim−1, 2lim−2): Alice's holds a−min+lim−1+2^F and
// Bob's b−min. A field of A−B is then 2^F+z, z = a−b+lim−1, in [0, 2^(F+1)),
// so no field borrows from its neighbour; |a−b| < lim iff z ≥ 0 (bit F
// set) and z ≤ 2(lim−1) (adding 2^F−1−2(lim−1) leaves bit F+1 clear, and
// carries out of no field). A term with lim 0, on a column spanning 2^61
// or more, or whose field does not fit in what is left of the word, stays
// in rest.
func (p *PlainComparator) pack() {
	p.wa, p.wb = make([]uint64, len(p.alice)), make([]uint64, len(p.bob))
	shift := 0
	for _, t := range p.terms {
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for _, rows := range [2][][]int64{p.alice, p.bob} {
			for _, r := range rows {
				lo, hi = min(lo, r[t.col]), max(hi, r[t.col])
			}
		}
		span := uint64(hi) - uint64(lo)
		f := bits.Len64(max(span+t.lim-1, 2*t.lim-2)) // wraps only where the first two tests below hold
		if t.lim == 0 || span >= 1<<61 || shift+f+2 > 64 {
			p.rest = append(p.rest, t)
			continue
		}
		p.word.hf |= 1 << (shift + f)
		p.word.hg |= 1 << (shift + f + 1)
		p.word.m |= (1<<f - 1 - 2*(t.lim-1)) << shift
		for i, r := range p.alice {
			p.wa[i] |= (uint64(r[t.col]) - uint64(lo) + t.lim - 1 + 1<<f) << shift
		}
		for j, r := range p.bob {
			p.wb[j] |= (uint64(r[t.col]) - uint64(lo)) << shift
		}
		shift += f + 2
	}
}

// pass tests a pair's word difference y, every field at once and without
// a branch: bit F set and bit F+1 clear after the addend, in every field.
func (w word) pass(y uint64) bool { return (y&w.hf^w.hf)|(y+w.m)&w.hg == 0 }

// matchRest tests Alice's record i against Bob's record j on the terms
// the word leaves out.
func (p *PlainComparator) matchRest(i, j int) bool {
	a, b := p.alice[i], p.bob[j]
	for _, t := range p.rest {
		if absDiff(a[t.col], b[t.col]) >= t.lim {
			return false
		}
	}
	return true
}

// Compare implements Comparator.
func (p *PlainComparator) Compare(i, j int) (bool, error) {
	if i < 0 || i >= len(p.alice) || j < 0 || j >= len(p.bob) {
		return false, fmt.Errorf("smc: pair (%d,%d) out of range", i, j)
	}
	if p.wa == nil {
		p.pack()
	}
	p.invocations++
	v := p.word.pass(p.wa[i] - p.wb[j])
	if p.rest != nil && v {
		v = p.matchRest(i, j)
	}
	return v, nil
}

// CompareBatch implements Comparator. Nothing is counted unless every
// pair is in range. The verdicts are only valid until the next call.
func (p *PlainComparator) CompareBatch(pairs [][2]int) ([]bool, error) {
	if p.wa == nil {
		p.pack()
	}
	wa, wb, w := p.wa, p.wb, p.word
	out := slices.Grow(p.verdicts[:0], len(pairs))[:len(pairs)]
	p.verdicts = out
	for x, pr := range pairs {
		i, j := pr[0], pr[1]
		if uint(i) >= uint(len(wa)) || uint(j) >= uint(len(wb)) {
			return nil, fmt.Errorf("smc: pair (%d,%d) out of range", i, j)
		}
		v := w.pass(wa[i] - wb[j])
		if p.rest != nil && v {
			v = p.matchRest(i, j)
		}
		out[x] = v
	}
	p.invocations += int64(len(pairs))
	return out, nil
}

// Invocations implements Comparator.
func (p *PlainComparator) Invocations() int64 { return p.invocations }

// BytesTransferred implements Comparator: the oracle moves no bytes.
func (p *PlainComparator) BytesTransferred() int64 { return 0 }

// Close implements Comparator.
func (p *PlainComparator) Close() error { return nil }
