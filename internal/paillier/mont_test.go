package paillier

import (
	"crypto/rand"
	"math/big"
	"math/bits"
	mrand "math/rand"
	"sync"
	"testing"
)

// wideKey is a key at the paper's size, for the kernels whose word count
// matters.
var wideKey = sync.OnceValue(func() *PrivateKey {
	sk, err := GenerateKey(rand.Reader, 1024)
	if err != nil {
		panic(err)
	}
	return sk
})

// montKeys are keys whose N² has 2, 3, 4 and 32 words: 64-, 96-, 128-
// and 1024-bit moduli.
var montKeys = sync.OnceValue(func() []*PrivateKey {
	keys := []*PrivateKey{nil, nil, nil, wideKey()}
	for i, bits := range []int{64, 96, 128} {
		sk, err := GenerateKey(rand.Reader, bits)
		if err != nil {
			panic(err)
		}
		keys[i] = sk
	}
	return keys
})

// montCtxFor returns the Montgomery context of montKeys()[size%4], or,
// when top is set, of an odd modulus of the same width just below R: a
// step's sum reaches R there, so the final carry and the subtraction both
// run.
func montCtxFor(size uint8, top bool) *montCtx {
	c := montKeys()[size%4].mont
	if !top {
		return c
	}
	m := new(big.Int).Lsh(one, uint(c.n*bits.UintSize))
	return newMontCtx(m.Sub(m, big.NewInt(59)))
}

// redc3 is the working set of the Montgomery step before the CIOS pass:
// the full product, its low half times −m⁻¹ mod R, that times m, and a
// word shift of the sum — three n×n-word multiplications. Kept as the
// reference mul is held to, and as BenchmarkMontMul's redc3 row.
type redc3 struct {
	c                     *montCtx
	minv                  *big.Int // −m⁻¹ mod R
	t, q, p, lo, hiT, hiP big.Int
}

func newREDC3(c *montCtx) *redc3 {
	r := new(big.Int).Lsh(one, uint(c.n*bits.UintSize))
	minv := new(big.Int).ModInverse(c.m, r)
	return &redc3{c: c, minv: minv.Sub(r, minv)}
}

// words returns x's words [from, to), clamped to its length.
func words(x *big.Int, from, to int) []big.Word {
	w := x.Bits()
	return w[min(from, len(w)):min(to, len(w))]
}

// mulREDC3 sets z = a·b·R⁻¹ mod m the three-multiplication way. It
// reports whether the sum before the subtraction reached R — the CIOS
// pass's final carry — and whether m was subtracted.
func mulREDC3(z, a, b *big.Int, s *redc3) (carried, subtracted bool) {
	c := s.c
	s.t.Mul(a, b)
	// q = (t mod R)·(−m⁻¹) mod R makes t + q·m a multiple of R.
	lo := words(&s.t, 0, c.n)
	s.lo.SetBits(lo)
	s.q.Mul(&s.lo, s.minv)
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
	carried = z.BitLen() > c.n*bits.UintSize
	// t + q·m < m² + R·m < 2R·m, so one subtraction reduces.
	if z.Cmp(c.m) >= 0 {
		z.Sub(z, c.m)
		return carried, true
	}
	return carried, false
}

// FuzzMontMul holds the CIOS step bit for bit to mulREDC3 and, through
// the form and back, to Mul+Mod, on N² of 2, 3, 4 and 32 words and on
// moduli just below R. Operands are 0, 1, m−1, short values (leading zero
// words), values with zero low words and full-width ones; z, a and b
// alias in every combination.
func FuzzMontMul(f *testing.F) {
	f.Add(uint8(0), false, uint8(0), []byte{1}, uint8(4), []byte{2}, uint8(0))
	f.Add(uint8(1), true, uint8(1), []byte{}, uint8(2), []byte{}, uint8(1))
	f.Add(uint8(2), false, uint8(2), []byte{}, uint8(2), []byte{}, uint8(4))
	f.Add(uint8(3), false, uint8(3), []byte{0xff, 0x01}, uint8(5), []byte{9, 9}, uint8(2))
	f.Add(uint8(3), true, uint8(4), []byte{7}, uint8(4), []byte{8}, uint8(3))
	f.Add(uint8(2), true, uint8(2), []byte{}, uint8(4), []byte{3}, uint8(0))
	f.Fuzz(func(t *testing.T, size uint8, top bool, aKind uint8, aRaw []byte, bKind uint8, bRaw []byte, alias uint8) {
		c := montCtxFor(size, top)
		m := c.m
		pick := func(kind uint8, raw []byte) *big.Int {
			switch kind % 6 {
			case 0:
				return new(big.Int)
			case 1:
				return big.NewInt(1)
			case 2:
				return new(big.Int).Sub(m, one)
			case 3:
				return new(big.Int).Mod(new(big.Int).SetBytes(raw), m)
			case 4:
				x := new(big.Int).SetBytes(raw)
				return x.Mod(x.Lsh(x, uint((c.n-1)*bits.UintSize)), m)
			}
			var seed int64
			for _, b := range raw {
				seed = seed*131 + int64(b)
			}
			return new(big.Int).Rand(mrand.New(mrand.NewSource(seed)), m)
		}
		a, b := pick(aKind, aRaw), pick(bKind, bRaw)
		z := new(big.Int)
		switch alias % 5 {
		case 1: // z = a
			z = a
		case 2: // z = b
			z = b
		case 3: // a = b
			b = a
		case 4: // z = a = b
			b, z = a, a
		}
		a0, b0 := new(big.Int).Set(a), new(big.Int).Set(b) // z may overwrite a or b
		want := new(big.Int)
		mulREDC3(want, a, b, newREDC3(c))
		s := new(montScratch)
		if c.mul(z, a, b, s); z.Cmp(want) != 0 {
			t.Fatalf("%d-word modulus %v: mul(%v, %v) = %v, mulREDC3 = %v", c.n, m, a0, b0, z, want)
		}
		// Into the form, one step, and out again is the plain product.
		am, bm := new(big.Int), new(big.Int)
		c.mul(am, a0, c.rr, s)
		c.mul(bm, b0, c.rr, s)
		c.mul(z, am, bm, s)
		c.mul(z, z, one, s)
		if plain := new(big.Int).Mul(a0, b0); z.Cmp(plain.Mod(plain, m)) != 0 {
			t.Fatalf("%d-word modulus %v: a·b through the form = %v, want %v", c.n, m, z, plain)
		}
	})
}

// TestMontMulCarryAndSubtraction walks random operands under every
// modulus FuzzMontMul uses: the step matches mulREDC3, the final carry
// occurs just below R, and a subtraction without it under every key.
func TestMontMulCarryAndSubtraction(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	for size := uint8(0); size < 4; size++ {
		for _, top := range []bool{false, true} {
			c := montCtxFor(size, top)
			ref := newREDC3(c)
			var s montScratch
			var carries, subtractions int
			z, want := new(big.Int), new(big.Int)
			for i := 0; i < 400; i++ {
				a, b := new(big.Int).Rand(rng, c.m), new(big.Int).Rand(rng, c.m)
				carried, subtracted := mulREDC3(want, a, b, ref)
				if carried {
					carries++
				} else if subtracted {
					subtractions++
				}
				if c.mul(z, a, b, &s); z.Cmp(want) != 0 {
					t.Fatalf("%d words, top %v: mul(%v, %v) = %v, want %v", c.n, top, a, b, z, want)
				}
			}
			if top && carries == 0 || !top && subtractions == 0 {
				t.Errorf("%d words, top %v: %d carries, %d plain subtractions in 400 steps", c.n, top, carries, subtractions)
			}
		}
	}
}

// TestMontMulAllocatesNothing: a step into a target and scratch that
// already hold n words allocates nothing, whatever aliases what.
func TestMontMulAllocatesNothing(t *testing.T) {
	c := wideKey().mont
	rng := mrand.New(mrand.NewSource(2))
	a, b := new(big.Int).Rand(rng, c.m), new(big.Int).Rand(rng, c.m)
	z := new(big.Int).SetBits(make([]big.Word, 0, c.n))
	s := &montScratch{w: make([]big.Word, 3*c.n)}
	if n := testing.AllocsPerRun(100, func() {
		c.mul(z, a, b, s)
		c.mul(z, z, z, s)
		c.mul(z, z, b, s)
		c.mul(z, z, one, s)
	}); n != 0 {
		t.Errorf("%v allocations per four steps, want 0", n)
	}
}

// hornerPackSigned is the packing PackSigned did before the chain: Exp by
// 2^w per slot, Mul+Mod to merge, the offsets in one AddConst. Kept as the
// reference PackBlinded is held to.
func hornerPackSigned(pk *PublicKey, cts []*Ciphertext, plan PackPlan) *Ciphertext {
	shift := new(big.Int).Lsh(one, uint(plan.SlotBits))
	acc := new(big.Int).Set(cts[len(cts)-1].C)
	for i := len(cts) - 2; i >= 0; i-- {
		acc.Exp(acc, shift, pk.N2)
		acc.Mul(acc, cts[i].C)
		acc.Mod(acc, pk.N2)
	}
	return pk.AddConst(&Ciphertext{C: acc}, plan.offsets[len(cts)-1])
}

// FuzzPackBlinded holds Bob's chain to the operators it replaces, bit for
// bit: per slot Enc(a²)·Enc(−2a)^b·g^{b²−T−1} raised by MulConst(ρ) and
// shifted by AddConst(δ), then the Horner PackSigned — against MulPow and
// PackBlinded with ρ·(b²−T−1)+δ as the slot's constant. Blinds range over
// [1, 2⁴⁰) with both ends, b takes both signs, groups run from 1 to Slots,
// at the 60-bit slots of Adult's bound and the 106-bit ones of the 30-bit
// default. The unpacked slots are the blinded values.
func FuzzPackBlinded(f *testing.F) {
	f.Add(false, false, uint8(0), uint8(0), int64(1), false)
	f.Add(false, true, uint8(1), uint8(1), int64(2), true)
	f.Add(true, false, uint8(16), uint8(2), int64(3), true)
	f.Add(true, true, uint8(7), uint8(3), int64(4), false)
	f.Fuzz(func(t *testing.T, wide, defaultBits bool, countSeed, rhoKind uint8, seed int64, negative bool) {
		sk := key(t)
		if wide {
			sk = wideKey()
		}
		valueBits, slotBits := 7, 60
		if defaultBits {
			valueBits, slotBits = 30, 106
		}
		plan, err := NewPackPlan(sk.N.BitLen(), slotBits)
		if err != nil {
			t.Fatal(err)
		}
		rng := mrand.New(mrand.NewSource(seed))
		count := 1 + int(countSeed)%plan.Slots
		limit := int64(1) << valueBits
		cts := make([]*Ciphertext, count)
		slots := make([]Slot, count)
		want := make([]*big.Int, count)
		for i := range slots {
			a, b := rng.Int63n(2*limit)-limit, rng.Int63n(2*limit)-limit
			if negative && b > 0 {
				b = -b
			}
			tt := rng.Int63n(128)
			var rho uint64
			switch (int(rhoKind) + i) % 3 {
			case 0:
				rho = 1
			case 1:
				rho = 1<<40 - 1
			default:
				rho = 1 + uint64(rng.Int63n(1<<40-1))
			}
			delta := big.NewInt(rng.Int63n(int64(rho)))
			rb := new(big.Int).SetUint64(rho)
			sq := encryptSigned(t, sk, big.NewInt(a*a))
			lin := encryptSigned(t, sk, big.NewInt(-2*a))

			dist := sk.Add(sq, sk.MulConst(lin, big.NewInt(b)))
			dist = sk.AddConst(dist, big.NewInt(b*b))
			shifted := sk.AddConst(dist, big.NewInt(-(tt + 1)))
			cts[i] = sk.AddConst(sk.MulConst(shifted, rb), delta)

			base, err := sk.MulPow(sk.ToMont(sq), sk.ToMont(lin), b)
			if err != nil {
				t.Fatal(err)
			}
			add := big.NewInt(b*b - tt - 1)
			add.Mul(add, rb)
			slots[i] = Slot{Base: base, Rho: rho, Add: add.Add(add, delta)}
			d := big.NewInt((a-b)*(a-b) - tt - 1)
			want[i] = d.Add(d.Mul(d, rb), delta)
		}
		got, err := sk.PackBlinded(slots, plan)
		if err != nil {
			t.Fatal(err)
		}
		if ref := hornerPackSigned(&sk.PublicKey, cts, plan); got.C.Cmp(ref.C) != 0 {
			t.Fatalf("%d-bit key, %d-bit slots, %d values: the chain's residue differs from the operators'", sk.N.BitLen(), slotBits, count)
		}
		vals, err := sk.UnpackSigned(got, plan, count)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if v.Cmp(want[i]) != 0 {
				t.Fatalf("slot %d: %v, want %v", i, v, want[i])
			}
		}
	})
}
