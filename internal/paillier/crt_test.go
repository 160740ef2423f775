package paillier

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
	"testing/quick"
)

// TestCRTMatchesDirect: the CRT fast path must agree with the direct
// Lambda/Mu decryption on every ciphertext.
func TestCRTMatchesDirect(t *testing.T) {
	sk := key(t)
	slow := &PrivateKey{ // same key without the factors: direct path
		PublicKey: sk.PublicKey,
		Lambda:    sk.Lambda,
		Mu:        sk.Mu,
	}
	f := func(v int64) bool {
		ct, err := sk.EncryptInt64(rand.Reader, v)
		if err != nil {
			return false
		}
		fast, err := sk.DecryptSigned(ct)
		if err != nil {
			return false
		}
		direct, err := slow.DecryptSigned(ct)
		if err != nil {
			return false
		}
		return fast.Cmp(direct) == 0 && fast.Int64() == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCRTAfterHomomorphicOps(t *testing.T) {
	sk := key(t)
	a, _ := sk.EncryptInt64(rand.Reader, 1000)
	b, _ := sk.EncryptInt64(rand.Reader, -58)
	got, err := sk.DecryptSigned(sk.MulConst(sk.Add(a, b), big.NewInt(3)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 3*(1000-58) {
		t.Errorf("CRT decryption of homomorphic result = %v", got)
	}
}

// TestNewPublicKeyRejectsBadModulus: a modulus without an odd N² has no
// Montgomery context, so NewPublicKey refuses it instead of building one.
func TestNewPublicKeyRejectsBadModulus(t *testing.T) {
	for _, n := range []int64{1, 2, 10, 1 << 40} {
		if _, err := NewPublicKey(big.NewInt(n)); !errors.Is(err, ErrModulus) {
			t.Errorf("NewPublicKey(%d): got %v, want ErrModulus", n, err)
		}
	}
}

// TestKeyWithoutFactorsStillDecrypts: a key built as a literal from N,
// Lambda and Mu alone decrypts by the direct path.
func TestKeyWithoutFactorsStillDecrypts(t *testing.T) {
	sk := key(t)
	pk, err := NewPublicKey(sk.N)
	if err != nil {
		t.Fatal(err)
	}
	noFactors := &PrivateKey{PublicKey: *pk, Lambda: sk.Lambda, Mu: sk.Mu}
	ct, _ := sk.EncryptInt64(rand.Reader, -9)
	got, err := noFactors.DecryptSigned(ct)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != -9 {
		t.Errorf("factor-less key decrypts to %v", got)
	}
}
