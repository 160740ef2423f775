package paillier

import (
	"math/big"
	"math/bits"
	"sync"
)

// Montgomery multiplication modulo N². math/big raises to a one-word
// exponent by squaring and then dividing by the modulus for every
// exponent bit, and at 1024-bit keys the division (2.4 µs) costs four
// times the 32-word multiply it reduces. Every chain of multiplications
// mod N² that is not a full-width Exp — the packing chain, Bob's slot
// bases, the fixed-base window loop — runs here instead: operands carry a
// factor R = 2^(64·words of N²), and a product is reduced word by word in
// the pass that forms it, no division.

// montCtx holds the constants of Montgomery arithmetic modulo one N²,
// built once per public key.
type montCtx struct {
	m *big.Int // the modulus N² (odd)
	n int      // words of R
	// m0inv is −m⁻¹ modulo one word, the multiplier that clears one; rr
	// is R² mod m, which a multiplication takes into Montgomery form; r1
	// is R mod m, the Montgomery form of 1.
	m0inv  big.Word
	rr, r1 *big.Int
}

// newMontCtx needs an odd m: R is a power of two, and m must be a unit
// modulo it.
func newMontCtx(m *big.Int) *montCtx {
	n := len(m.Bits())
	inv := new(big.Int).ModInverse(m, new(big.Int).Lsh(one, bits.UintSize))
	r := new(big.Int).Lsh(one, uint(n*bits.UintSize))
	rr := new(big.Int).Mul(r, r)
	return &montCtx{m: m, n: n, m0inv: -inv.Bits()[0], rr: rr.Mod(rr, m), r1: r.Mod(r, m)}
}

// montScratch is the working set of one Montgomery step: the 2n-word
// running sum and room to pad a short operand to n words. Reused across
// steps, a chain allocates nothing.
type montScratch struct {
	w []big.Word
}

var montScratchPool = sync.Pool{New: func() any { return new(montScratch) }}

// mul sets z = a·b·R⁻¹ mod m for a, b < m: the Montgomery product, so a
// chain whose operands are in Montgomery form stays in it. Multiplying by
// rr enters the form, by 1 leaves it. z may alias a or b.
//
// One CIOS pass, the loop math/big's own Exp runs: for each word b[i],
// add the row a·b[i] to the running sum, then the row of m that clears
// the sum's lowest word — 2n² word products, where forming a·b and then
// reducing it took 3n². The result fits m's words, so a z with that
// capacity is written in place.
func (c *montCtx) mul(z, a, b *big.Int, s *montScratch) {
	n := c.n
	if len(s.w) != 3*n {
		s.w = make([]big.Word, 3*n)
	}
	t := s.w[:2*n]
	clear(t[:n]) // row i sets t[n+i] before a later row adds into it
	x := a.Bits()
	if len(x) < n { // the row kernel reads n words of a
		x = s.w[2*n:]
		clear(x[copy(x, a.Bits()):])
	}
	y, m := b.Bits(), c.m.Bits()
	var carry big.Word
	for i := 0; i < n; i++ {
		var c1 big.Word
		if i < len(y) {
			c1 = addMulVVW(t[i:i+n], x, y[i])
		}
		c2 := addMulVVW(t[i:i+n], m, t[i]*c.m0inv)
		// Both rows' carries and the last one land in the untouched word
		// t[n+i]; their sum is below 2^65, so at most 1 carries on.
		w, k1 := bits.Add(uint(c1), uint(c2), 0)
		w, k2 := bits.Add(w, uint(carry), 0)
		t[n+i], carry = big.Word(w), big.Word(k1+k2)
	}
	// carry·R + t[n:] is below 2m (a·b + q·m < m² + R·m): subtract m
	// unless that borrows where nothing carried.
	zw := z.Bits()
	if cap(zw) < n {
		zw = make([]big.Word, n)
	}
	zw = zw[:n]
	var borrow uint
	for i, w := range t[n:] {
		var d uint
		d, borrow = bits.Sub(uint(w), uint(m[i]), borrow)
		zw[i] = big.Word(d)
	}
	if borrow != uint(carry) {
		copy(zw, t[n:])
	}
	z.SetBits(zw)
}

// exp sets z = y^e for e ≥ 1, left to right; z must not alias y.
func (c *montCtx) exp(z, y *big.Int, e uint64, s *montScratch) {
	z.Set(y)
	for i := bits.Len64(e) - 2; i >= 0; i-- {
		c.mul(z, z, z, s)
		if e>>uint(i)&1 == 1 {
			c.mul(z, z, y, s)
		}
	}
}

// MontCiphertext is a ciphertext in the Montgomery form of its key: an
// operand of MulPow and PackBlinded, which keep a chain of
// multiplications in that form instead of reducing every product by
// division.
type MontCiphertext struct {
	v big.Int
}

// ToMont returns ct in the Montgomery form of pk (one multiplication). A
// value outside [0, N²) is reduced first, as the homomorphic operators
// would.
func (pk *PublicKey) ToMont(ct *Ciphertext) *MontCiphertext {
	c := pk.mont
	x := ct.C
	if x.Sign() < 0 || x.Cmp(c.m) >= 0 {
		x = new(big.Int).Mod(x, c.m)
	}
	s := montScratchPool.Get().(*montScratch)
	z := new(MontCiphertext)
	c.mul(&z.v, x, c.rr, s)
	montScratchPool.Put(s)
	return z
}

// MulPow returns x·y^e in Montgomery form: the ciphertext of
// m(x) + e·m(y). A negative e inverts y^|e| — outside the form, so it
// costs a modular inversion on top of two multiplications — and fails
// with ErrCiphertextRange when y shares a factor with N.
func (pk *PublicKey) MulPow(x, y *MontCiphertext, e int64) (*MontCiphertext, error) {
	z := new(MontCiphertext)
	if e == 0 {
		z.v.Set(&x.v)
		return z, nil
	}
	c := pk.mont
	s := montScratchPool.Get().(*montScratch)
	defer montScratchPool.Put(s)
	abs := uint64(e)
	if e < 0 {
		abs = -abs
	}
	c.exp(&z.v, &y.v, abs, s)
	if e < 0 {
		c.mul(&z.v, &z.v, one, s)
		if z.v.ModInverse(&z.v, c.m) == nil {
			return nil, ErrCiphertextRange
		}
		c.mul(&z.v, &z.v, c.rr, s)
	}
	c.mul(&z.v, &z.v, &x.v, s)
	return z, nil
}
