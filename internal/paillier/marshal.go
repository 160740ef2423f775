package paillier

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/big"
)

// wireKey is the serialized form of a private key. The CRT factors are
// optional; a key restored without them decrypts via the Lambda/Mu slow
// path.
type wireKey struct {
	N, Lambda, Mu, P, Q *big.Int
}

// MarshalBinary implements encoding.BinaryMarshaler for key storage.
func (sk *PrivateKey) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	w := wireKey{N: sk.N, Lambda: sk.Lambda, Mu: sk.Mu, P: sk.P, Q: sk.Q}
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("paillier: marshaling key: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler and validates the
// restored key's internal consistency.
func (sk *PrivateKey) UnmarshalBinary(data []byte) error {
	var w wireKey
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("paillier: unmarshaling key: %w", err)
	}
	if w.N == nil || w.Lambda == nil || w.Mu == nil {
		return fmt.Errorf("paillier: key is missing components")
	}
	if w.N.Sign() <= 0 || w.Lambda.Sign() <= 0 || w.Mu.Sign() <= 0 {
		return fmt.Errorf("paillier: key has non-positive components")
	}
	pk, err := NewPublicKey(w.N)
	if err != nil {
		return err
	}
	if (w.P == nil) != (w.Q == nil) {
		return fmt.Errorf("paillier: key has only one CRT factor")
	}
	if w.P != nil && new(big.Int).Mul(w.P, w.Q).Cmp(w.N) != 0 {
		return fmt.Errorf("paillier: CRT factors do not multiply to N")
	}
	// μ must invert λ mod N.
	check := new(big.Int).Mul(new(big.Int).Mod(w.Lambda, w.N), w.Mu)
	if check.Mod(check, w.N).Cmp(one) != 0 {
		return fmt.Errorf("paillier: Mu is not the inverse of Lambda mod N")
	}
	*sk = PrivateKey{
		PublicKey: *pk,
		Lambda:    w.Lambda,
		Mu:        w.Mu,
		P:         w.P,
		Q:         w.Q,
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler for the public key.
func (pk *PublicKey) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(pk.N); err != nil {
		return nil, fmt.Errorf("paillier: marshaling public key: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (pk *PublicKey) UnmarshalBinary(data []byte) error {
	var n big.Int
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&n); err != nil {
		return fmt.Errorf("paillier: unmarshaling public key: %w", err)
	}
	key, err := NewPublicKey(&n)
	if err != nil {
		return err
	}
	*pk = *key
	return nil
}
