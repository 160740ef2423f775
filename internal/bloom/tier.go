// Tier support: the three-tier hybrid engine (DESIGN.md §12) triages
// Unknown record pairs by Dice similarity over CLK encodings before any
// SMC allowance is spent. It runs only where both holders share one
// address space, so no CLK ever crosses to a peer. This file holds the
// pieces every engine with a tier shares — the encoder, the NonMatch
// threshold, the byte form the golden vectors pin, and the canonical
// mapping from dataset records to CLK input fields.
package bloom

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"pprl/internal/dataset"
)

// NewDefaultEncoder is the tier's encoder, for the engines that host both
// holders in one address space: the conventional CLK shape (1,000 bits,
// 30 hash functions a bigram) under a fixed key.
func NewDefaultEncoder() *Encoder {
	enc, err := NewEncoder(1000, 30, 2, []byte("pprl-tier-default-key"))
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
// words, ⌈m/64⌉·8 bytes; the golden vectors pin encodings in this form.
func (f *Filter) Marshal() []byte {
	out := make([]byte, 8*len(f.words))
	for i, w := range f.words {
		binary.LittleEndian.PutUint64(out[8*i:], w)
	}
	return out
}

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
