package smc

import (
	"fmt"
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
// every int64; an always-true attribute is dropped. The tests run in
// order of how often each failed, most first, with early exit: the first
// pair of every Alice run is evaluated in full and tallies the attributes
// it fails, and the order is re-sorted between batches. The AND does not
// depend on the order, so neither does any verdict.
type PlainComparator struct {
	alice, bob  [][]int64
	terms       []term
	invocations int64
	verdicts    []bool
}

// term is one compiled attribute: a pair passes it iff |a−b| < lim on
// column col — lim is ⌊√T⌋ + 1, 1 for equality, and 0 for a threshold
// below zero, which nothing passes. fails counts the sampled pairs that
// did not.
type term struct {
	col   int
	lim   uint64
	fails int64
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

// Compare implements Comparator.
func (p *PlainComparator) Compare(i, j int) (bool, error) {
	if i < 0 || i >= len(p.alice) || j < 0 || j >= len(p.bob) {
		return false, fmt.Errorf("smc: pair (%d,%d) out of range", i, j)
	}
	p.invocations++
	return match(p.terms, p.alice[i], p.bob[j]), nil
}

// match tests the terms in order and stops at the first one the pair
// fails.
func match(terms []term, a, b []int64) bool {
	for _, t := range terms {
		if absDiff(a[t.col], b[t.col]) >= t.lim {
			return false
		}
	}
	return true
}

// sample tests every term and tallies the ones the pair fails.
func sample(terms []term, a, b []int64) bool {
	ok := true
	for k := range terms {
		if t := &terms[k]; absDiff(a[t.col], b[t.col]) >= t.lim {
			t.fails++
			ok = false
		}
	}
	return ok
}

// CompareBatch implements Comparator. Nothing is counted unless every
// pair is in range, and Alice's record is looked up once per run of pairs
// sharing it, whose first pair is the sample. The verdicts are only valid
// until the next call.
func (p *PlainComparator) CompareBatch(pairs [][2]int) ([]bool, error) {
	alice, bob, terms := p.alice, p.bob, p.terms
	out := slices.Grow(p.verdicts[:0], len(pairs))[:len(pairs)]
	p.verdicts = out
	for x := 0; x < len(pairs); {
		i, j := pairs[x][0], pairs[x][1]
		if uint(i) >= uint(len(alice)) || uint(j) >= uint(len(bob)) {
			return nil, fmt.Errorf("smc: pair (%d,%d) out of range", i, j)
		}
		row := alice[i]
		out[x] = sample(terms, row, bob[j])
		if x++; len(terms) == 0 {
			continue // every pair matches
		}
		// The rest of the run: the first test's operands are held.
		first, rest := terms[0], terms[1:]
		a := row[first.col]
		for ; x < len(pairs) && pairs[x][0] == i; x++ {
			j := pairs[x][1]
			if uint(j) >= uint(len(bob)) {
				return nil, fmt.Errorf("smc: pair (%d,%d) out of range", i, j)
			}
			b := bob[j]
			out[x] = absDiff(a, b[first.col]) < first.lim && match(rest, row, b)
		}
	}
	p.invocations += int64(len(pairs))
	// Insertion sort, stable: the order is already sorted but for what
	// this batch's samples moved.
	for k := 1; k < len(terms); k++ {
		for m := k; m > 0 && terms[m].fails > terms[m-1].fails; m-- {
			terms[m], terms[m-1] = terms[m-1], terms[m]
		}
	}
	return out, nil
}

// Invocations implements Comparator.
func (p *PlainComparator) Invocations() int64 { return p.invocations }

// BytesTransferred implements Comparator: the oracle moves no bytes.
func (p *PlainComparator) BytesTransferred() int64 { return 0 }

// Close implements Comparator.
func (p *PlainComparator) Close() error { return nil }
