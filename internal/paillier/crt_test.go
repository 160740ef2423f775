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

func TestKeyMarshalRoundTrip(t *testing.T) {
	sk := key(t)
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored PrivateKey
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	ct, _ := sk.EncryptInt64(rand.Reader, 777)
	got, err := restored.DecryptSigned(ct)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 777 {
		t.Errorf("restored key decrypts to %v", got)
	}
	// Restored key kept the CRT factors.
	if restored.P == nil || restored.Q == nil {
		t.Error("CRT factors lost in round trip")
	}

	// Public key round trip.
	pdata, err := sk.Public().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var pk PublicKey
	if err := pk.UnmarshalBinary(pdata); err != nil {
		t.Fatal(err)
	}
	ct2, err := pk.EncryptInt64(rand.Reader, 41)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sk.DecryptSigned(ct2); got.Int64() != 41 {
		t.Errorf("encryption under restored public key decrypts to %v", got)
	}
}

func TestKeyUnmarshalRejectsCorruption(t *testing.T) {
	sk := key(t)
	data, _ := sk.MarshalBinary()

	var broken PrivateKey
	if err := broken.UnmarshalBinary([]byte("garbage")); err == nil {
		t.Error("garbage should fail")
	}
	// Tamper: flip Mu by re-encoding a wrong wireKey.
	bad := &PrivateKey{PublicKey: sk.PublicKey, Lambda: sk.Lambda, Mu: big.NewInt(12345), P: sk.P, Q: sk.Q}
	badData, _ := bad.MarshalBinary()
	if err := broken.UnmarshalBinary(badData); err == nil {
		t.Error("inconsistent Mu should fail validation")
	}
	// Tamper: wrong factors.
	bad2 := &PrivateKey{PublicKey: sk.PublicKey, Lambda: sk.Lambda, Mu: sk.Mu, P: big.NewInt(17), Q: big.NewInt(19)}
	badData2, _ := bad2.MarshalBinary()
	if err := broken.UnmarshalBinary(badData2); err == nil {
		t.Error("wrong CRT factors should fail validation")
	}
	_ = data
}

// TestKeyUnmarshalRejectsBadModulus: a modulus without an odd N² has no
// Montgomery context, so both key forms refuse it instead of building one.
func TestKeyUnmarshalRejectsBadModulus(t *testing.T) {
	for _, n := range []int64{1, 2, 10, 1 << 40} {
		pub, err := (&PublicKey{N: big.NewInt(n)}).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var pk PublicKey
		if err := pk.UnmarshalBinary(pub); !errors.Is(err, ErrModulus) {
			t.Errorf("public key with N = %d: got %v, want ErrModulus", n, err)
		}
		priv, err := (&PrivateKey{PublicKey: PublicKey{N: big.NewInt(n)}, Lambda: one, Mu: one}).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var sk PrivateKey
		if err := sk.UnmarshalBinary(priv); !errors.Is(err, ErrModulus) {
			t.Errorf("private key with N = %d: got %v, want ErrModulus", n, err)
		}
		if _, err := NewPublicKey(big.NewInt(n)); !errors.Is(err, ErrModulus) {
			t.Errorf("NewPublicKey(%d): got %v, want ErrModulus", n, err)
		}
	}
}

func TestKeyWithoutFactorsStillDecrypts(t *testing.T) {
	sk := key(t)
	noFactors := &PrivateKey{PublicKey: sk.PublicKey, Lambda: sk.Lambda, Mu: sk.Mu}
	data, err := noFactors.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored PrivateKey
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	ct, _ := sk.EncryptInt64(rand.Reader, -9)
	got, err := restored.DecryptSigned(ct)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != -9 {
		t.Errorf("factor-less key decrypts to %v", got)
	}
}
