package paillier

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"
)

// fixedBaseKeyBits are the sizes the kernel tests run at: the smallest
// key GenerateKey makes, two odd geometries (an exponent length that is
// not a multiple of the digit width, one that is not a multiple of 8),
// the test size and the paper's size.
var fixedBaseKeyBits = []int{64, 65, 70, 256, 1024}

func fixedBaseFor(t testing.TB, bits int) (*PrivateKey, *FixedBaseNoise) {
	t.Helper()
	sk, err := GenerateKey(rand.Reader, bits)
	if err != nil {
		t.Fatalf("GenerateKey(%d): %v", bits, err)
	}
	f, err := NewFixedBaseNoise(rand.Reader, sk.Public())
	if err != nil {
		t.Fatalf("NewFixedBaseNoise(%d): %v", bits, err)
	}
	return sk, f
}

// jacobiModN is the Jacobi symbol (c mod N | N) of a ciphertext: +1 for
// everything built from fixed-base units, uniform ±1 for r^N units.
func jacobiModN(c *big.Int, pk *PublicKey) int {
	return big.Jacobi(new(big.Int).Mod(c, pk.N), pk.N)
}

// exponentOf reads a little-endian exponent the way unit does.
func exponentOf(b []byte, expBits int) *big.Int {
	be := make([]byte, len(b))
	for i, v := range b {
		be[len(b)-1-i] = v
	}
	a := new(big.Int).SetBytes(be)
	return a.And(a, new(big.Int).Sub(new(big.Int).Lsh(one, uint(expBits)), one))
}

// TestFixedBaseUnitIsNoise: a unit is an encryption of zero in the
// square subgroup.
func TestFixedBaseUnitIsNoise(t *testing.T) {
	for _, bits := range fixedBaseKeyBits {
		sk, f := fixedBaseFor(t, bits)
		for i := 0; i < 8; i++ {
			rn, err := f.unit(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			m, err := sk.Decrypt(&Ciphertext{C: rn})
			if err != nil {
				t.Fatalf("%d bits: decrypting a unit: %v", bits, err)
			}
			if m.Sign() != 0 {
				t.Errorf("%d bits: unit decrypts to %v, want 0", bits, m)
			}
			if j := jacobiModN(rn, sk.Public()); j != 1 {
				t.Errorf("%d bits: unit has Jacobi symbol %d, want +1", bits, j)
			}
		}
	}
}

// TestFixedBaseRoundTrip: Encrypt and EncryptInt64 decrypt like their
// PublicKey counterparts, unsigned and signed.
func TestFixedBaseRoundTrip(t *testing.T) {
	for _, bits := range fixedBaseKeyBits {
		sk, f := fixedBaseFor(t, bits)
		top := new(big.Int).Sub(sk.N, one)
		for _, m := range []*big.Int{new(big.Int), big.NewInt(1), big.NewInt(123456789), top} {
			ct, err := f.Encrypt(m)
			if err != nil {
				t.Fatalf("%d bits: Encrypt(%v): %v", bits, m, err)
			}
			got, err := sk.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(m) != 0 {
				t.Errorf("%d bits: roundtrip %v = %v", bits, m, got)
			}
		}
		for _, v := range []int64{0, 1, -1, 1 << 20, -(1 << 20)} {
			ct, err := f.EncryptInt64(v)
			if err != nil {
				t.Fatalf("%d bits: EncryptInt64(%d): %v", bits, v, err)
			}
			got, err := sk.DecryptSigned(ct)
			if err != nil {
				t.Fatal(err)
			}
			if got.Int64() != v {
				t.Errorf("%d bits: signed roundtrip %d = %v", bits, v, got)
			}
		}
		if _, err := f.Encrypt(new(big.Int).Neg(one)); err != ErrMessageRange {
			t.Errorf("%d bits: negative message: err = %v, want ErrMessageRange", bits, err)
		}
		if _, err := f.Encrypt(sk.N); err != ErrMessageRange {
			t.Errorf("%d bits: message = N: err = %v, want ErrMessageRange", bits, err)
		}
	}
}

// TestFixedBaseExponent pins the window loop to a plain exponentiation
// of the base and the exponent to ⌈|N|/2⌉ bits: the bytes the reader
// supplies, truncated to that length, are the exponent — so an all-ones
// stream yields base^(2^⌈|N|/2⌉ − 1), never more.
func TestFixedBaseExponent(t *testing.T) {
	for _, bits := range fixedBaseKeyBits {
		sk, f := fixedBaseFor(t, bits)
		if want := (bits + 1) / 2; f.expBits != want {
			t.Fatalf("%d bits: expBits = %d, want %d", bits, f.expBits, want)
		}
		base := new(big.Int) // the table keeps it in Montgomery form
		f.mont.mul(base, &f.table[0], one, new(montScratch))
		nbytes := (f.expBits + 7) / 8

		// Exactly nbytes of 0xFF: reading more fails, reading fewer
		// gives a smaller exponent.
		got, err := f.unit(bytes.NewReader(bytes.Repeat([]byte{0xFF}, nbytes)))
		if err != nil {
			t.Fatal(err)
		}
		maxExp := new(big.Int).Sub(new(big.Int).Lsh(one, uint(f.expBits)), one)
		if want := new(big.Int).Exp(base, maxExp, sk.N2); got.Cmp(want) != 0 {
			t.Errorf("%d bits: all-ones exponent: unit != base^(2^%d − 1)", bits, f.expBits)
		}

		rng := mrand.New(mrand.NewSource(int64(bits)))
		for i := 0; i < 16; i++ {
			raw := make([]byte, nbytes)
			rng.Read(raw)
			if i == 0 {
				clear(raw) // exponent 0: the empty product
			}
			got, err := f.unit(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			a := exponentOf(raw, f.expBits)
			if want := new(big.Int).Exp(base, a, sk.N2); got.Cmp(want) != 0 {
				t.Fatalf("%d bits: unit != base^a for a = %v", bits, a)
			}
		}

		if _, err := f.unit(bytes.NewReader(make([]byte, nbytes-1))); err == nil {
			t.Errorf("%d bits: a short randomness read was accepted", bits)
		}
	}
}

// TestFixedBaseFreshExponents: the exported operations draw from
// crypto/rand, so two encryptions of one message differ.
func TestFixedBaseFreshExponents(t *testing.T) {
	_, f := fixedBaseFor(t, testKeyBits)
	seen := map[string]bool{}
	for i := 0; i < 32; i++ {
		ct, err := f.EncryptInt64(7)
		if err != nil {
			t.Fatal(err)
		}
		if seen[ct.C.String()] {
			t.Fatal("two encryptions of the same message are identical")
		}
		seen[ct.C.String()] = true
	}
}

// TestFixedBaseConcurrent hammers one source from many goroutines; run
// with -race. Plaintexts are verified to catch torn scratch reuse.
func TestFixedBaseConcurrent(t *testing.T) {
	sk, f := fixedBaseFor(t, testKeyBits)
	const goroutines, perG = 8, 25
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v := int64(g*1000+i) - 4000
				ct, err := f.EncryptInt64(v)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := sk.DecryptSigned(ct)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Int64() != v {
					t.Errorf("goroutine %d: roundtrip %d = %v", g, v, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzFixedBaseNoise runs the source over random small keys (every bit
// length from 64 to 128, so every exponent-length remainder mod 4 and
// mod 8) and random messages: units are noise in the square subgroup and
// encryptions round-trip.
func FuzzFixedBaseNoise(f *testing.F) {
	f.Add(int64(1), uint8(0), int64(12345))
	f.Add(int64(2), uint8(1), int64(-1))
	f.Add(int64(3), uint8(6), int64(0))
	f.Add(int64(4), uint8(64), int64(-1<<62))
	f.Fuzz(func(t *testing.T, keySeed int64, bitsSeed uint8, msg int64) {
		bits := 64 + int(bitsSeed)%65
		rng := mrand.New(mrand.NewSource(keySeed))
		sk, err := GenerateKey(rng, bits)
		if err != nil {
			t.Fatalf("GenerateKey(%d): %v", bits, err)
		}
		fb, err := NewFixedBaseNoise(rng, sk.Public())
		if err != nil {
			t.Fatal(err)
		}
		desc := fmt.Sprintf("p=%v q=%v", sk.P, sk.Q)

		rn, err := fb.unit(rng)
		if err != nil {
			t.Fatal(err)
		}
		if m, err := sk.Decrypt(&Ciphertext{C: rn}); err != nil || m.Sign() != 0 {
			t.Fatalf("%s: unit decrypts to %v, %v", desc, m, err)
		}
		if j := jacobiModN(rn, sk.Public()); j != 1 {
			t.Fatalf("%s: unit has Jacobi symbol %d", desc, j)
		}

		// A 64-bit modulus does not hold every int64 in its signed half
		// range, so compare residues.
		want := sk.encodeSigned(big.NewInt(msg))
		ct, err := fb.EncryptInt64(msg)
		if err != nil {
			t.Fatalf("%s: EncryptInt64(%d): %v", desc, msg, err)
		}
		got, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatalf("%s: Decrypt: %v", desc, err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("%s: roundtrip %d = %v, want %v", desc, msg, got, want)
		}
		if j := jacobiModN(ct.C, sk.Public()); j != 1 {
			t.Fatalf("%s: ciphertext has Jacobi symbol %d", desc, j)
		}
	})
}
