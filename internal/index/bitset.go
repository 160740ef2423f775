package index

import "math/bits"

// bitset is a fixed-capacity set of S-class indexes. The candidate set
// for one R class is the AND of the per-attribute admission sets, so the
// representation is chosen for cheap intersection: one word op covers 64
// classes.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// and intersects b with o in place.
func (b bitset) and(o bitset) {
	for i := range b {
		b[i] &= o[i]
	}
}

func (b bitset) popcount() int64 {
	var n int64
	for _, w := range b {
		n += int64(bits.OnesCount64(w))
	}
	return n
}

// forEach calls fn for every set bit in ascending order.
func (b bitset) forEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
