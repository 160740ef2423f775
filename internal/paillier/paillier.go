// Package paillier implements the Paillier public-key cryptosystem
// (Paillier, Eurocrypt '99), the additively homomorphic encryption the
// paper's SMC step builds its secure distance protocol on (Section V-A,
// citing [18]): given Enc(m1) and Enc(m2) anyone can compute Enc(m1+m2),
// and given a constant c anyone can compute Enc(c·m1).
//
// The implementation uses only the standard library (crypto/rand,
// math/big) and the usual g = n+1 simplification, so encryption is
// (1+mn)·rⁿ mod n². Messages are elements of Z_n; EncryptInt64/DecryptInt64
// add a signed encoding (values below n/2 are non-negative, values above
// are negative), which the secure threshold-comparison protocol relies on
// to reveal only the sign of a blinded difference. Decryption takes the
// CRT fast path when the prime factors are present.
//
// Security model: semi-honest parties, as in the paper. math/big is not
// constant-time, so — like every big.Int-based cryptosystem — this
// implementation is not hardened against local timing side channels;
// that is outside the paper's (and this reproduction's) threat model.
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
)

var one = big.NewInt(1)

// scratch pools big.Int temporaries for the homomorphic operators and the
// decryption fast path. The SMC hot loop calls Add/AddConst/MulConst and
// decryptCRT thousands of times per second; recycling the full-width
// intermediates (products mod N² peak at 4× the key size) keeps the
// allocator off the profile.
var scratch = sync.Pool{New: func() any { return new(big.Int) }}

// PublicKey holds the Paillier modulus. G is fixed to N+1. Build it with
// NewPublicKey, which also derives the Montgomery constants of N².
type PublicKey struct {
	// N is the RSA-style modulus p·q.
	N *big.Int
	// N2 caches N².
	N2 *big.Int

	mont *montCtx
}

// ErrModulus is returned for a modulus that cannot be a product of two
// odd primes: one below 3, or an even one.
var ErrModulus = errors.New("paillier: modulus must be odd and at least 3")

// NewPublicKey returns the public key of modulus n, or ErrModulus.
func NewPublicKey(n *big.Int) (*PublicKey, error) {
	if n.Cmp(big.NewInt(3)) < 0 || n.Bit(0) == 0 {
		return nil, ErrModulus
	}
	n2 := new(big.Int).Mul(n, n)
	return &PublicKey{N: n, N2: n2, mont: newMontCtx(n2)}, nil
}

// PrivateKey extends the public key with the decryption trapdoor.
type PrivateKey struct {
	PublicKey
	// Lambda is lcm(p-1, q-1).
	Lambda *big.Int
	// Mu is (L(g^Lambda mod N²))⁻¹ mod N.
	Mu *big.Int
	// P and Q are the prime factors; when present, Decrypt uses the CRT
	// fast path (exponentiation mod p² and q² separately), roughly 3-4×
	// faster than the direct form. Keys built without the factors still
	// decrypt via Lambda/Mu.
	P, Q *big.Int

	// CRT precomputation, derived from P and Q on first use.
	crt     *crtContext
	crtOnce sync.Once

	// halfN caches N>>1, the signed-encoding boundary DecryptSigned
	// tests against on every call; derived lazily so keys built by
	// struct literal get it too.
	halfN    *big.Int
	halfOnce sync.Once
}

// crtContext caches the values the CRT decryption path needs.
type crtContext struct {
	p2, q2   *big.Int // p², q²
	pm1, qm1 *big.Int // p-1, q-1
	hp, hq   *big.Int // L_p(g^{p-1} mod p²)⁻¹ mod p, and the q analogue
	qInvP    *big.Int // q⁻¹ mod p
}

// Ciphertext is a Paillier ciphertext: an element of Z*_{n²}. It is a
// distinct type so plaintext and ciphertext integers cannot be confused.
type Ciphertext struct {
	C *big.Int
}

// ErrMessageRange is returned when a plaintext is outside [0, N).
var ErrMessageRange = errors.New("paillier: message outside [0, N)")

// ErrCiphertextRange is returned when a ciphertext is outside [0, N²) or
// shares a factor with N.
var ErrCiphertextRange = errors.New("paillier: invalid ciphertext")

// MinKeyBits is the smallest modulus GenerateKey accepts.
const MinKeyBits = 64

// GenerateKey creates a key pair with an n of the given bit length. The
// paper's experiments use 1024-bit keys; tests use shorter ones for speed.
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	if bits < MinKeyBits {
		return nil, fmt.Errorf("paillier: key size %d too small", bits)
	}
	for {
		p, err := rand.Prime(random, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating p: %w", err)
		}
		q, err := rand.Prime(random, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
		lambda := new(big.Int).Mul(pm1, qm1)
		lambda.Div(lambda, gcd)

		// With g = n+1: g^λ mod n² = 1 + λ·n (mod n²), so
		// L(g^λ) = λ mod n and μ = λ⁻¹ mod n.
		mu := new(big.Int).ModInverse(new(big.Int).Mod(lambda, n), n)
		if mu == nil {
			continue // λ not invertible mod n; re-draw primes
		}
		pk, err := NewPublicKey(n) // n is a product of odd primes
		if err != nil {
			return nil, err
		}
		return &PrivateKey{
			PublicKey: *pk,
			Lambda:    lambda,
			Mu:        mu,
			P:         p,
			Q:         q,
		}, nil
	}
}

// Encrypt encrypts m ∈ [0, N) with fresh randomness from random.
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	rn, err := pk.noiseUnit(random)
	if err != nil {
		return nil, err
	}
	return pk.encryptWithNoise(m, rn)
}

// noiseUnit computes r^N mod N² for a fresh random unit r: the
// message-independent factor of an encryption, and exactly an encryption
// of zero. This is the single modular exponentiation that dominates
// Encrypt/Rerandomize cost; RandomizerPool precomputes these units in the
// background.
func (pk *PublicKey) noiseUnit(random io.Reader) (*big.Int, error) {
	r, err := pk.randomUnit(random)
	if err != nil {
		return nil, err
	}
	return r.Exp(r, pk.N, pk.N2), nil
}

// encryptWithNoise assembles c = (1 + m·n) · rn mod n² from a message and
// a precomputed noise unit rn = r^n mod n² — two modular multiplications,
// no exponentiation.
func (pk *PublicKey) encryptWithNoise(m, rn *big.Int) (*Ciphertext, error) {
	if m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		return nil, ErrMessageRange
	}
	// 1 + m·n < n² for every valid m, so the only reduction needed is the
	// one after multiplying in the noise unit.
	t := scratch.Get().(*big.Int)
	t.Mul(m, pk.N)
	t.Add(t, one)
	t.Mul(t, rn)
	c := new(big.Int).Mod(t, pk.N2)
	scratch.Put(t)
	return &Ciphertext{C: c}, nil
}

// EncryptInt64 encrypts a signed value using the half-range encoding.
func (pk *PublicKey) EncryptInt64(random io.Reader, v int64) (*Ciphertext, error) {
	return pk.Encrypt(random, pk.encodeSigned(big.NewInt(v)))
}

// encodeSigned maps a signed integer into Z_n (negative values wrap).
func (pk *PublicKey) encodeSigned(v *big.Int) *big.Int {
	return new(big.Int).Mod(v, pk.N)
}

// Decrypt recovers m ∈ [0, N).
func (sk *PrivateKey) Decrypt(ct *Ciphertext) (*big.Int, error) {
	if err := sk.checkCiphertext(ct); err != nil {
		return nil, err
	}
	if sk.P != nil && sk.Q != nil {
		return sk.decryptCRT(ct), nil
	}
	// m = L(c^λ mod n²) · μ mod n, with L(x) = (x-1)/n.
	x := new(big.Int).Exp(ct.C, sk.Lambda, sk.N2)
	x.Sub(x, one)
	x.Div(x, sk.N)
	x.Mul(x, sk.Mu)
	x.Mod(x, sk.N)
	return x, nil
}

// decryptCRT computes the message modulo p and q separately and combines
// with the Chinese Remainder Theorem; the half-size exponentiations make
// it several times faster than the direct form.
func (sk *PrivateKey) decryptCRT(ct *Ciphertext) *big.Int {
	c := sk.crtInit()
	mp := scratch.Get().(*big.Int)
	mq := scratch.Get().(*big.Int)
	// m_p = L_p(ct^{p-1} mod p²) · hp mod p.
	mp.Exp(ct.C, c.pm1, c.p2)
	mp.Sub(mp, one)
	mp.Div(mp, sk.P)
	mp.Mul(mp, c.hp)
	mp.Mod(mp, sk.P)
	// m_q likewise.
	mq.Exp(ct.C, c.qm1, c.q2)
	mq.Sub(mq, one)
	mq.Div(mq, sk.Q)
	mq.Mul(mq, c.hq)
	mq.Mod(mq, sk.Q)
	// CRT: m = m_q + q·((m_p − m_q)·q⁻¹ mod p); mp doubles as the diff
	// scratch since its value is consumed first.
	mp.Sub(mp, mq)
	mp.Mul(mp, c.qInvP)
	mp.Mod(mp, sk.P)
	m := new(big.Int).Mul(mp, sk.Q)
	m.Add(m, mq)
	m.Mod(m, sk.N)
	scratch.Put(mp)
	scratch.Put(mq)
	return m
}

// crtInit lazily derives the CRT context from P and Q, once.
func (sk *PrivateKey) crtInit() *crtContext {
	sk.crtOnce.Do(sk.buildCRT)
	return sk.crt
}

func (sk *PrivateKey) buildCRT() {
	c := &crtContext{
		p2:  new(big.Int).Mul(sk.P, sk.P),
		q2:  new(big.Int).Mul(sk.Q, sk.Q),
		pm1: new(big.Int).Sub(sk.P, one),
		qm1: new(big.Int).Sub(sk.Q, one),
	}
	// With g = n+1: g^{p-1} mod p² = 1 + (p-1)·n mod p², so
	// L_p(g^{p-1}) = (p-1)·n/p... computed directly for clarity.
	gp := new(big.Int).Add(sk.N, one)
	gp.Exp(gp, c.pm1, c.p2)
	gp.Sub(gp, one)
	gp.Div(gp, sk.P)
	c.hp = gp.ModInverse(gp, sk.P)
	gq := new(big.Int).Add(sk.N, one)
	gq.Exp(gq, c.qm1, c.q2)
	gq.Sub(gq, one)
	gq.Div(gq, sk.Q)
	c.hq = gq.ModInverse(gq, sk.Q)
	c.qInvP = new(big.Int).ModInverse(sk.Q, sk.P)
	sk.crt = c
}

// DecryptSigned recovers a signed value from the half-range encoding:
// plaintexts in [0, N/2) are non-negative, the rest negative.
func (sk *PrivateKey) DecryptSigned(ct *Ciphertext) (*big.Int, error) {
	m, err := sk.Decrypt(ct)
	if err != nil {
		return nil, err
	}
	if m.Cmp(sk.half()) > 0 {
		m.Sub(m, sk.N)
	}
	return m, nil
}

// half lazily caches the signed-encoding boundary N>>1.
func (sk *PrivateKey) half() *big.Int {
	sk.halfOnce.Do(func() { sk.halfN = new(big.Int).Rsh(sk.N, 1) })
	return sk.halfN
}

// Add returns Enc(m1 + m2) from Enc(m1) and Enc(m2) — the +h operator of
// the paper's Section V-A.
func (pk *PublicKey) Add(a, b *Ciphertext) *Ciphertext {
	t := scratch.Get().(*big.Int)
	t.Mul(a.C, b.C)
	c := new(big.Int).Mod(t, pk.N2)
	scratch.Put(t)
	return &Ciphertext{C: c}
}

// MulConst returns Enc(k·m) from Enc(m) and a plaintext constant — the ×h
// operator. Negative constants are encoded via the signed mapping.
//
// The exponentiation cost is proportional to the exponent's bit length,
// so small constants take a fast path: a non-negative k < N is used
// directly, and a negative k of magnitude |k| < N is computed as
// (ct^{|k|})⁻¹ mod N² — the protocol's small negative constants would
// otherwise encode to the full-width exponent N−|k| and cost a complete
// modular exponentiation each.
func (pk *PublicKey) MulConst(ct *Ciphertext, k *big.Int) *Ciphertext {
	if k.Sign() < 0 {
		abs := scratch.Get().(*big.Int)
		abs.Neg(k)
		if abs.Cmp(pk.N) < 0 {
			c := new(big.Int).Exp(ct.C, abs, pk.N2)
			scratch.Put(abs)
			if c.ModInverse(c, pk.N2) != nil {
				return &Ciphertext{C: c}
			}
			// ct shares a factor with N — not a valid ciphertext, but the
			// generic path is defined on it, so match that result.
			c.Exp(ct.C, pk.encodeSigned(k), pk.N2)
			return &Ciphertext{C: c}
		}
		scratch.Put(abs)
	} else if k.Cmp(pk.N) < 0 {
		return &Ciphertext{C: new(big.Int).Exp(ct.C, k, pk.N2)}
	}
	return &Ciphertext{C: new(big.Int).Exp(ct.C, pk.encodeSigned(k), pk.N2)}
}

// AddConst returns Enc(m + k) without an extra encryption: Enc(m)·g^k.
func (pk *PublicKey) AddConst(ct *Ciphertext, k *big.Int) *Ciphertext {
	// g^k = 1 + (k mod N)·N ≤ 1 + (N−1)·N < N², so the product with the
	// ciphertext is the only reduction needed.
	gk := scratch.Get().(*big.Int)
	gk.Mod(k, pk.N)
	gk.Mul(gk, pk.N)
	gk.Add(gk, one)
	gk.Mul(gk, ct.C)
	c := new(big.Int).Mod(gk, pk.N2)
	scratch.Put(gk)
	return &Ciphertext{C: c}
}

// Rerandomize multiplies in a fresh encryption of zero so the ciphertext
// is unlinkable to its inputs while decrypting identically.
func (pk *PublicKey) Rerandomize(random io.Reader, ct *Ciphertext) (*Ciphertext, error) {
	rn, err := pk.noiseUnit(random)
	if err != nil {
		return nil, err
	}
	return pk.mulNoise(ct, rn), nil
}

// mulNoise multiplies a noise unit into ct. A unit is itself an
// encryption of zero, so the one modular multiplication completes a
// rerandomization.
func (pk *PublicKey) mulNoise(ct *Ciphertext, rn *big.Int) *Ciphertext {
	c := new(big.Int).Mul(ct.C, rn)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}
}

// randomUnit draws r ∈ [1, N) with gcd(r, N) = 1.
func (pk *PublicKey) randomUnit(random io.Reader) (*big.Int, error) {
	gcd := new(big.Int)
	for {
		r, err := rand.Int(random, pk.N)
		if err != nil {
			return nil, fmt.Errorf("paillier: drawing randomness: %w", err)
		}
		if r.Sign() == 0 {
			continue
		}
		if gcd.GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return r, nil
		}
	}
}

// RandomBlind draws a positive multiplicative blinding factor in
// [1, 2^bits) for the order-preserving threshold comparison.
func (pk *PublicKey) RandomBlind(random io.Reader, bits int) (*big.Int, error) {
	limit := new(big.Int).Lsh(one, uint(bits))
	for {
		r, err := rand.Int(random, limit)
		if err != nil {
			return nil, fmt.Errorf("paillier: drawing blind: %w", err)
		}
		if r.Sign() > 0 {
			return r, nil
		}
	}
}

func (sk *PrivateKey) checkCiphertext(ct *Ciphertext) error {
	if ct == nil || ct.C == nil {
		return ErrCiphertextRange
	}
	if ct.C.Sign() <= 0 || ct.C.Cmp(sk.N2) >= 0 {
		return ErrCiphertextRange
	}
	g := scratch.Get().(*big.Int)
	ok := g.GCD(nil, nil, ct.C, sk.N).Cmp(one) == 0
	scratch.Put(g)
	if !ok {
		return ErrCiphertextRange
	}
	return nil
}

// Public returns the public half of the key.
func (sk *PrivateKey) Public() *PublicKey { return &sk.PublicKey }
