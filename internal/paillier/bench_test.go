package paillier

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
)

// benchKeyBits is the paper's key size; the micro-benchmarks exist to
// keep the kernel costs at that size visible (bench-smoke compiles and
// runs them once per CI pass so they cannot rot).
const benchKeyBits = 1024

var (
	benchOnce sync.Once
	benchSK   *PrivateKey
)

func benchKey(b *testing.B) *PrivateKey {
	b.Helper()
	benchOnce.Do(func() {
		k, err := GenerateKey(rand.Reader, benchKeyBits)
		if err != nil {
			b.Fatalf("GenerateKey: %v", err)
		}
		benchSK = k
	})
	return benchSK
}

func benchCiphertext(b *testing.B, sk *PrivateKey, v int64) *Ciphertext {
	b.Helper()
	ct, err := sk.EncryptInt64(rand.Reader, v)
	if err != nil {
		b.Fatalf("EncryptInt64: %v", err)
	}
	return ct
}

func BenchmarkEncrypt(b *testing.B) {
	sk := benchKey(b)
	m := big.NewInt(123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Encrypt(rand.Reader, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecryptCRT(b *testing.B) {
	sk := benchKey(b)
	ct := benchCiphertext(b, sk, 123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecryptDirect(b *testing.B) {
	sk := benchKey(b)
	// A key without the prime factors decrypts via Lambda/Mu.
	direct := &PrivateKey{PublicKey: sk.PublicKey, Lambda: sk.Lambda, Mu: sk.Mu}
	ct := benchCiphertext(b, sk, 123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := direct.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	sk := benchKey(b)
	x := benchCiphertext(b, sk, 11)
	y := benchCiphertext(b, sk, 31)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Add(x, y)
	}
}

func BenchmarkAddConst(b *testing.B) {
	sk := benchKey(b)
	ct := benchCiphertext(b, sk, 11)
	k := big.NewInt(-65)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.AddConst(ct, k)
	}
}

// BenchmarkMulConst contrasts the exponent sizes the protocol produces:
// small positive (Bob's record values), small negative (the fast path
// that previously cost a full-width exponentiation), the 40-bit blinding
// factor, and a full-width random constant (the generic path).
func BenchmarkMulConst(b *testing.B) {
	sk := benchKey(b)
	ct := benchCiphertext(b, sk, 17)
	full, err := rand.Int(rand.Reader, sk.N)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		k    *big.Int
	}{
		{"small", big.NewInt(12345)},
		{"small-negative", big.NewInt(-12345)},
		{"blind40", new(big.Int).Lsh(one, 40)},
		{"full-width", full},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sk.MulConst(ct, tc.k)
			}
		})
	}
}

// BenchmarkPackUnpack measures the packed-response kernels at the SMC
// slot width: packing d=4 blinded outputs into one ciphertext versus the
// single decryption that replaces four.
func BenchmarkPackUnpack(b *testing.B) {
	sk := benchKey(b)
	plan, err := NewPackPlan(sk.N.BitLen(), 106)
	if err != nil {
		b.Fatal(err)
	}
	cts := make([]*Ciphertext, 4)
	for i := range cts {
		cts[i] = benchCiphertext(b, sk, int64(i)-2)
	}
	b.Run("pack4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sk.PackSigned(cts, plan); err != nil {
				b.Fatal(err)
			}
		}
	})
	packed, err := sk.PackSigned(cts, plan)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("unpack4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sk.UnpackSigned(packed[0], plan, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNoiseUnit is the uniform unit r^N mod N²: one full-width
// exponentiation, what Encrypt, Rerandomize and every RandomizerPool
// unit cost.
func BenchmarkNoiseUnit(b *testing.B) {
	sk := benchKey(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.noiseUnit(rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFixedBaseNoise is the fixed-base unit that replaces it on the
// key-less holder's side: ≤ 128 table multiplications. Allocations must
// stay at the returned unit alone (the window loop works in pooled
// scratch), or the end-to-end alloc_mb moves.
func BenchmarkFixedBaseNoise(b *testing.B) {
	sk := benchKey(b)
	f, err := NewFixedBaseNoise(rand.Reader, sk.Public())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.unit(rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFixedBaseTable is the one-time table build on key receipt.
func BenchmarkFixedBaseTable(b *testing.B) {
	sk := benchKey(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewFixedBaseNoise(rand.Reader, sk.Public()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMontMul is one step of the Montgomery chain at 1024 bits (ns
// per step), against the three-multiplication step it replaced (redc3)
// and the Mul+Mod step math/big's one-word exponent path takes per
// exponent bit.
func BenchmarkMontMul(b *testing.B) {
	sk := benchKey(b)
	c := sk.mont
	x := benchCiphertext(b, sk, 17).C
	y := benchCiphertext(b, sk, 19).C
	s := new(montScratch)
	var z big.Int
	b.Run("mul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.mul(&z, x, y, s)
		}
	})
	b.Run("sqr", func(b *testing.B) {
		z.Set(x)
		for i := 0; i < b.N; i++ {
			c.mul(&z, &z, &z, s)
		}
	})
	b.Run("redc3", func(b *testing.B) {
		r := newREDC3(c)
		for i := 0; i < b.N; i++ {
			mulREDC3(&z, x, y, r)
		}
	})
	b.Run("mul+mod", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			z.Mul(x, y)
			z.Mod(&z, sk.N2)
		}
	})
}

// BenchmarkPackBlinded is one full ciphertext of Bob's at 60-bit slots —
// 17 slots at 1024 bits, each a 40-bit blind folded into the slot shift —
// reported in ns per slot.
func BenchmarkPackBlinded(b *testing.B) {
	sk := benchKey(b)
	plan, err := NewPackPlan(sk.N.BitLen(), 60)
	if err != nil {
		b.Fatal(err)
	}
	slots := make([]Slot, plan.Slots)
	for i := range slots {
		rho, err := sk.RandomBlind(rand.Reader, 40)
		if err != nil {
			b.Fatal(err)
		}
		slots[i] = Slot{Base: sk.ToMont(benchCiphertext(b, sk, int64(i))), Rho: rho.Uint64() | 1<<39, Add: big.NewInt(int64(i))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.PackBlinded(slots, plan); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(slots)), "ns/slot")
}
