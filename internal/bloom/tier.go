// Tier support: the three-tier hybrid engine (DESIGN.md §12) triages
// Unknown record pairs by Dice similarity over CLK encodings before any
// SMC allowance is spent. This file holds the pieces that tier shares
// across processes — the NonMatch threshold, a stable byte serialization
// so holders can ship encodings to the matcher, and the canonical mapping
// from dataset records to CLK input fields.
package bloom

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"pprl/internal/dataset"
)

// TierM is the tier's filter size in bits. With 30 hash functions per
// bigram it is the conventional CLK shape, and the only one any tier
// encodes at: nothing a peer sends sizes a holder's encoding work.
const TierM = 1000

// NewTierEncoder is the tier's encoder under key, at the fixed shape. A
// session's holders call it with their shared secret.
func NewTierEncoder(key []byte) (*Encoder, error) { return NewEncoder(TierM, 30, 2, key) }

// NewDefaultEncoder is the encoder of the engines that host both holders
// in one address space: the tier's shape under a fixed key.
func NewDefaultEncoder() *Encoder {
	enc, err := NewTierEncoder([]byte("pprl-tier-default-key"))
	if err != nil {
		panic(err) // the key is not empty
	}
	return enc
}

// DefaultTierLow is the Dice threshold a zero TierLow selects: the value
// EXPERIMENTS.md § "Triage tier at paper scale" sized on Adult (0.85 leaves
// too much to buy, 0.95 starts to drop true matches).
const DefaultTierLow = 0.90

// TierLow fills the one threshold every engine shares and rejects one
// outside [0, 1). The tier is a one-sided filter — Dice ≤ low labels an
// Unknown pair NonMatch for free, every other pair competes for the
// allowance — so a bad threshold costs recall, never precision.
func TierLow(low *float64) error {
	if *low == 0 {
		*low = DefaultTierLow
	}
	if !(*low >= 0 && *low < 1) {
		return fmt.Errorf("tier threshold must satisfy 0 ≤ low < 1 (got low=%v)", *low)
	}
	return nil
}

// Marshal serializes the filter's bit array as little-endian 64-bit
// words. The filter size m is not embedded — every tier encodes at TierM,
// and omitting it keeps the wire form exactly ⌈m/64⌉·8 bytes per record.
func (f *Filter) Marshal() []byte {
	out := make([]byte, 8*len(f.words))
	for i, w := range f.words {
		binary.LittleEndian.PutUint64(out[8*i:], w)
	}
	return out
}

// Unmarshal reconstructs a filter of size m from Marshal's output. Bits
// at positions ≥ m must be zero: a foreign or truncated payload fails
// loudly instead of skewing every Dice score it touches.
func Unmarshal(data []byte, m int) (*Filter, error) {
	if m < 8 {
		return nil, fmt.Errorf("bloom: filter size %d too small", m)
	}
	words := (m + 63) / 64
	if len(data) != 8*words {
		return nil, fmt.Errorf("bloom: encoding is %d bytes, want %d for m=%d", len(data), 8*words, m)
	}
	f := &Filter{words: make([]uint64, words), m: m}
	for i := range f.words {
		f.words[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	if tail := m % 64; tail != 0 {
		if f.words[words-1]&^(1<<tail-1) != 0 {
			return nil, fmt.Errorf("bloom: encoding has bits set beyond m=%d", m)
		}
	}
	return f, nil
}

// M returns the filter size in bits.
func (f *Filter) M() int { return f.m }

// FieldsOf renders record i's quasi-identifier cells as the strings the
// CLK hashes: categorical values verbatim, numeric values in their
// shortest decimal form. Both holders must use this same mapping or their
// encodings are incomparable.
func FieldsOf(d *dataset.Dataset, qids []int, i int) []string {
	rec := d.Record(i)
	fields := make([]string, 0, len(qids))
	for _, q := range qids {
		if d.Schema().Attr(q).Kind == dataset.Categorical {
			fields = append(fields, rec.Cells[q].Node.Value)
		} else {
			fields = append(fields, strconv.FormatFloat(rec.Cells[q].Num, 'g', -1, 64))
		}
	}
	return fields
}

// EncodeRecords builds every record's composite CLK over its
// quasi-identifier fields.
func EncodeRecords(enc *Encoder, d *dataset.Dataset, qids []int) []*Filter {
	out := make([]*Filter, d.Len())
	for i := 0; i < d.Len(); i++ {
		out[i] = enc.Encode(FieldsOf(d, qids, i)...)
	}
	return out
}
