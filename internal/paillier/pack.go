package paillier

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// Ciphertext slot packing: k signed plaintexts, each of magnitude below
// 2^{w-1}, ride in one ciphertext as disjoint w-bit slots of the single
// plaintext Σ (vᵢ + 2^{w-1})·2^{i·w}. Packing is pure homomorphics — the
// packer holds only ciphertexts — built from the cheap operators: raising
// a ciphertext to 2^w is w squarings (shifting its plaintext left by one
// slot), the per-slot sign offset 2^{w-1} is one AddConst of a public
// constant, and merging slots is ciphertext multiplication; PackBlinded
// runs the lot as one chain of Montgomery multiplications. The private
// key side then performs ONE decryption per packed ciphertext instead of
// one per value, which is what makes packing the SMC response hot-path
// optimization: decryption is the querying party's dominant cost.
//
// The offset makes every slot value non-negative (vᵢ + 2^{w-1} ∈ [0, 2^w)
// exactly when |vᵢ| < 2^{w-1}), so slots never borrow from their
// neighbours and the packed plaintext stays below 2^{Slots·w} < N — the
// plan guarantees Slots·w ≤ N.BitLen()−1. UnpackSigned checks that the
// bits above the occupied slots are zero and fails with ErrPackedOverflow
// otherwise; a value that overflows its own slot into a neighbour is not
// detectable here (the carry is absorbed by the next slot), which is why
// callers must enforce the |vᵢ| < 2^{w-1} bound before packing.

// ErrPackedOverflow reports a packed plaintext with non-zero bits above
// its occupied slots: some packed value exceeded the slot bound, or the
// ciphertext was not produced by PackSigned under the same plan.
var ErrPackedOverflow = errors.New("paillier: packed plaintext overflows its slots")

// PackPlan fixes the slot geometry both ends of a packed exchange must
// share: the slot width and how many slots one ciphertext carries. Build
// it with NewPackPlan, which also computes the geometry's constants; a
// plan is read-only afterwards and safe to share between goroutines.
type PackPlan struct {
	// SlotBits is the slot width w; packed values must satisfy
	// |v| < 2^{w-1}.
	SlotBits int
	// Slots is the per-ciphertext capacity: ⌊(modBits−1)/w⌋, so a full
	// ciphertext's plaintext stays strictly below 2^{modBits−1} ≤ N.
	Slots int

	// offsets[m-1] is Σ 2^{w-1}·2^{i·w} for i < m: the sum of the first m
	// per-slot sign offsets, added homomorphically in one AddConst.
	offsets []*big.Int
	// mask is 2^w − 1 and half the one-slot sign offset 2^{w-1}.
	mask, half *big.Int
}

// NewPackPlan derives the packing geometry for a modulus of modBits bits
// and the given slot width. It fails fast when even a single slot does
// not fit — the caller must use a larger key.
func NewPackPlan(modBits, slotBits int) (PackPlan, error) {
	if slotBits < 2 {
		return PackPlan{}, fmt.Errorf("paillier: slot width %d too small", slotBits)
	}
	slots := (modBits - 1) / slotBits
	if slots < 1 {
		return PackPlan{}, fmt.Errorf("paillier: %d-bit slots do not fit a %d-bit modulus", slotBits, modBits)
	}
	plan := PackPlan{SlotBits: slotBits, Slots: slots, offsets: make([]*big.Int, slots)}
	plan.half = new(big.Int).Lsh(one, uint(slotBits-1))
	plan.mask = new(big.Int).Sub(new(big.Int).Lsh(one, uint(slotBits)), one)
	sum := new(big.Int)
	for i := range plan.offsets {
		sum.SetBit(sum, i*slotBits+slotBits-1, 1)
		plan.offsets[i] = new(big.Int).Set(sum)
	}
	return plan, nil
}

// check refuses a plan NewPackPlan did not build.
func (p PackPlan) check() error {
	if len(p.offsets) != p.Slots || p.Slots < 1 {
		return fmt.Errorf("paillier: pack plan (%d slots of %d bits) was not built by NewPackPlan", p.Slots, p.SlotBits)
	}
	return nil
}

// Ciphertexts returns how many packed ciphertexts carry count values:
// ⌈count/Slots⌉.
func (p PackPlan) Ciphertexts(count int) int {
	return (count + p.Slots - 1) / p.Slots
}

// PackSigned packs the signed plaintexts of cts into ⌈len(cts)/Slots⌉
// ciphertexts under the plan. Slot i of output ciphertext c holds the
// plaintext of cts[c·Slots+i]; every input plaintext must have magnitude
// below 2^{SlotBits-1} (not checkable here — enforce before encrypting).
// The output randomness is a product of the inputs' units; rerandomize
// before sending anything adversarial-facing. It is PackBlinded with unit
// blinds.
func (pk *PublicKey) PackSigned(cts []*Ciphertext, plan PackPlan) ([]*Ciphertext, error) {
	if err := plan.check(); err != nil {
		return nil, err
	}
	out := make([]*Ciphertext, 0, plan.Ciphertexts(len(cts)))
	slots := make([]Slot, 0, min(len(cts), plan.Slots))
	for lo := 0; lo < len(cts); lo += plan.Slots {
		slots = slots[:0]
		for _, ct := range cts[lo:min(lo+plan.Slots, len(cts))] {
			slots = append(slots, Slot{Base: pk.ToMont(ct), Rho: 1})
		}
		packed, err := pk.PackBlinded(slots, plan)
		if err != nil {
			return nil, err
		}
		out = append(out, packed)
	}
	return out, nil
}

// Slot is one value of a packed ciphertext: Rho·m + Add, where m is the
// plaintext of Base. The caller bounds it like any packed value:
// |Rho·m + Add| < 2^{SlotBits-1}.
type Slot struct {
	Base *MontCiphertext
	// Rho is a multiplicative blind in [1, 2^SlotBits); 1 packs m as is.
	Rho uint64
	// Add is a public constant added to the blinded value; nil adds 0.
	Add *big.Int
}

// PackBlinded builds one packed ciphertext from up to Slots values as a
// single chain of Montgomery multiplications. Horner from the highest
// slot down, each step shifts the accumulated slots up by one slot
// (SlotBits squarings) and multiplies in Base^Rho — the exponentiation
// Straus-folded into the shift, so its squarings are the shift's last
// ⌈log₂ Rho⌉ and a slot costs SlotBits squarings plus one multiplication
// per set bit of Rho. Every Add and the sign offsets land in one AddConst
// at the end. The residue is exactly that of MulConst(Base, Rho), then
// AddConst(Add), then PackSigned.
func (pk *PublicKey) PackBlinded(slots []Slot, plan PackPlan) (*Ciphertext, error) {
	if err := plan.check(); err != nil {
		return nil, err
	}
	if len(slots) < 1 || len(slots) > plan.Slots {
		return nil, fmt.Errorf("paillier: packing %d values into a %d-slot plan", len(slots), plan.Slots)
	}
	w := plan.SlotBits
	c := pk.mont
	s := montScratchPool.Get().(*montScratch)
	defer montScratchPool.Put(s)
	acc := new(big.Int)
	k := new(big.Int).Set(plan.offsets[len(slots)-1])
	var add big.Int
	for i := len(slots) - 1; i >= 0; i-- {
		sl := slots[i]
		n := bits.Len64(sl.Rho)
		if n == 0 || n > w {
			return nil, fmt.Errorf("paillier: blind %d outside [1, 2^%d)", sl.Rho, w)
		}
		if i == len(slots)-1 {
			c.exp(acc, &sl.Base.v, sl.Rho, s)
		} else {
			for j := w - n; j > 0; j-- {
				c.mul(acc, acc, acc, s)
			}
			for j := n - 1; j >= 0; j-- {
				c.mul(acc, acc, acc, s)
				if sl.Rho>>uint(j)&1 == 1 {
					c.mul(acc, acc, &sl.Base.v, s)
				}
			}
		}
		if sl.Add != nil {
			k.Add(k, add.Lsh(sl.Add, uint(i*w)))
		}
	}
	c.mul(acc, acc, one, s)
	return pk.AddConst(&Ciphertext{C: acc}, k), nil
}

// UnpackSigned decrypts one packed ciphertext and extracts its first
// count signed slot values, in packing order. It returns
// ErrPackedOverflow when plaintext bits remain above the occupied slots.
func (sk *PrivateKey) UnpackSigned(ct *Ciphertext, plan PackPlan, count int) ([]*big.Int, error) {
	if count < 1 || count > len(plan.offsets) {
		return nil, fmt.Errorf("paillier: unpacking %d values from a %d-slot plan", count, len(plan.offsets))
	}
	m, err := sk.Decrypt(ct)
	if err != nil {
		return nil, err
	}
	out := make([]*big.Int, count)
	for i := 0; i < count; i++ {
		v := new(big.Int).And(m, plan.mask)
		out[i] = v.Sub(v, plan.half)
		m.Rsh(m, uint(plan.SlotBits))
	}
	if m.Sign() != 0 {
		return nil, ErrPackedOverflow
	}
	return out, nil
}
