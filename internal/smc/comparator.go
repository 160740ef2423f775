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
type PlainComparator struct {
	spec        *Spec
	alice, bob  [][]int64
	invocations int64
	verdicts    []bool
}

// NewPlainComparator builds the oracle over both holders' encoded records.
func NewPlainComparator(spec *Spec, alice, bob [][]int64) *PlainComparator {
	return &PlainComparator{spec: spec, alice: alice, bob: bob}
}

// Compare implements Comparator.
func (p *PlainComparator) Compare(i, j int) (bool, error) {
	if i < 0 || i >= len(p.alice) || j < 0 || j >= len(p.bob) {
		return false, fmt.Errorf("smc: pair (%d,%d) out of range", i, j)
	}
	p.invocations++
	return p.spec.Matches(p.alice[i], p.bob[j]), nil
}

// CompareBatch implements Comparator. The whole list is range-checked
// before anything is counted, and Alice's record is looked up once per run
// of pairs sharing it. The verdicts are only valid until the next call.
func (p *PlainComparator) CompareBatch(pairs [][2]int) ([]bool, error) {
	for _, pr := range pairs {
		if pr[0] < 0 || pr[0] >= len(p.alice) || pr[1] < 0 || pr[1] >= len(p.bob) {
			return nil, fmt.Errorf("smc: pair (%d,%d) out of range", pr[0], pr[1])
		}
	}
	p.verdicts = slices.Grow(p.verdicts[:0], len(pairs))[:len(pairs)]
	var row []int64
	for x, last := 0, -1; x < len(pairs); x++ {
		if pairs[x][0] != last {
			last = pairs[x][0]
			row = p.alice[last]
		}
		p.verdicts[x] = p.spec.Matches(row, p.bob[pairs[x][1]])
	}
	p.invocations += int64(len(pairs))
	return p.verdicts, nil
}

// Invocations implements Comparator.
func (p *PlainComparator) Invocations() int64 { return p.invocations }

// BytesTransferred implements Comparator: the oracle moves no bytes.
func (p *PlainComparator) BytesTransferred() int64 { return 0 }

// Close implements Comparator.
func (p *PlainComparator) Close() error { return nil }
