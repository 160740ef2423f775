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

// FuzzMontMul holds the Montgomery step to Mul+Mod on operands below N² of
// a 256-bit and a 1024-bit key: 0, 1, N²−1, short values and full-width
// ones, with z = a = b aliased.
func FuzzMontMul(f *testing.F) {
	f.Add(false, uint8(0), []byte{1}, uint8(4), []byte{2}, false)
	f.Add(true, uint8(1), []byte{}, uint8(2), []byte{}, false)
	f.Add(true, uint8(2), []byte{}, uint8(2), []byte{}, true)
	f.Add(false, uint8(3), []byte{0xff, 0x01}, uint8(4), []byte{9, 9}, true)
	f.Add(true, uint8(4), []byte{7}, uint8(4), []byte{8}, false)
	f.Fuzz(func(t *testing.T, wide bool, aKind uint8, aRaw []byte, bKind uint8, bRaw []byte, alias bool) {
		sk := key(t)
		if wide {
			sk = wideKey()
		}
		c := sk.mont
		m := sk.N2
		pick := func(kind uint8, raw []byte) *big.Int {
			switch kind % 5 {
			case 0:
				return new(big.Int)
			case 1:
				return big.NewInt(1)
			case 2:
				return new(big.Int).Sub(m, one)
			case 3:
				return new(big.Int).Mod(new(big.Int).SetBytes(raw), m)
			}
			var seed int64
			for _, b := range raw {
				seed = seed*131 + int64(b)
			}
			return new(big.Int).Rand(mrand.New(mrand.NewSource(seed)), m)
		}
		a, b := pick(aKind, aRaw), pick(bKind, bRaw)
		s := new(montScratch)
		z := new(big.Int)
		if alias {
			b = a
			z.Set(a)
			c.mul(z, z, z, s)
		} else {
			c.mul(z, a, b, s)
		}
		want := new(big.Int).Mul(a, b)
		want.Mod(want, m)
		// z = a·b·R⁻¹ mod N², reduced.
		r := new(big.Int).Lsh(one, uint(c.n*bits.UintSize))
		got := new(big.Int).Mul(z, r)
		if z.Sign() < 0 || z.Cmp(m) >= 0 || got.Mod(got, m).Cmp(want) != 0 {
			t.Fatalf("%d-bit key: mul(%v, %v) = %v, not a·b·R⁻¹ mod N²", sk.N.BitLen(), a, b, z)
		}
		// Into the form, one step, and out again is the plain product.
		am, bm := sk.ToMont(&Ciphertext{C: a}), sk.ToMont(&Ciphertext{C: b})
		c.mul(z, &am.v, &bm.v, s)
		c.mul(z, z, one, s)
		if z.Cmp(want) != 0 {
			t.Fatalf("%d-bit key: a·b through the form = %v, want %v", sk.N.BitLen(), z, want)
		}
	})
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
