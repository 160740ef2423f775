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
// factor R = 2^(64·words of N²), and a product is reduced by three
// big.Int multiplications and a word shift, no division.

// montCtx holds the constants of Montgomery arithmetic modulo one N²,
// built once per public key.
type montCtx struct {
	m *big.Int // the modulus N² (odd)
	n int      // words of R
	// minv is −m⁻¹ mod R; rr is R² mod m, which a multiplication takes
	// into Montgomery form; r1 is R mod m, the Montgomery form of 1.
	minv, rr, r1 *big.Int
}

// newMontCtx needs an odd m: R is a power of two, and m must be a unit
// modulo it.
func newMontCtx(m *big.Int) *montCtx {
	n := len(m.Bits())
	r := new(big.Int).Lsh(one, uint(n*bits.UintSize))
	minv := new(big.Int).ModInverse(m, r)
	minv.Sub(r, minv)
	rr := new(big.Int).Mul(r, r)
	return &montCtx{m: m, n: n, minv: minv, rr: rr.Mod(rr, m), r1: r.Mod(r, m)}
}

// montScratch is the working set of one Montgomery step: the product, the
// reduction multiple and its product with the modulus, and word views
// into them. Reused across steps, a chain allocates nothing.
type montScratch struct {
	t, q, p      big.Int
	lo, hiT, hiP big.Int
}

var montScratchPool = sync.Pool{New: func() any { return new(montScratch) }}

// words returns x's words [from, to), clamped to its length.
func words(x *big.Int, from, to int) []big.Word {
	w := x.Bits()
	return w[min(from, len(w)):min(to, len(w))]
}

// mul sets z = a·b·R⁻¹ mod m for a, b < m: the Montgomery product, so a
// chain whose operands are in Montgomery form stays in it. Multiplying by
// rr enters the form, by 1 leaves it. z may alias a or b, and a == b
// takes math/big's squaring.
func (c *montCtx) mul(z, a, b *big.Int, s *montScratch) {
	s.t.Mul(a, b)
	// q = (t mod R)·(−m⁻¹) mod R makes t + q·m a multiple of R.
	lo := words(&s.t, 0, c.n)
	s.lo.SetBits(lo)
	s.q.Mul(&s.lo, c.minv)
	s.lo.SetBits(words(&s.q, 0, c.n))
	s.p.Mul(&s.lo, c.m)
	// (t + q·m)/R is the sum of the high halves, plus the carry of the low
	// ones: they add up to 0 when t's low half is zero and to R otherwise.
	s.hiT.SetBits(words(&s.t, c.n, 2*c.n))
	s.hiP.SetBits(words(&s.p, c.n, 2*c.n+1))
	z.Add(&s.hiT, &s.hiP)
	for _, w := range lo {
		if w != 0 {
			z.Add(z, one)
			break
		}
	}
	// t + q·m < m² + R·m < 2R·m, so one subtraction reduces.
	if z.Cmp(c.m) >= 0 {
		z.Sub(z, c.m)
	}
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
