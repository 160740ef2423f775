package session

import (
	"fmt"
	"math"

	"pprl/internal/bloom"
	"pprl/internal/dataset"
	"pprl/internal/dpblock"
	"pprl/internal/smc"
)

// The DP release that leaves a holder is padded: dpblock.Pad stretches
// every class's member list to its noised count with dummy handles, so
// only the (ε, δ)-DP sizes ever cross the wire. The helpers here make
// those dummies behave like records for the rest of the protocol — SMC
// encodings that can never satisfy the classifier, and tier CLKs that
// look like any other filter — so neither the exchanged artifacts nor
// the comparison outcomes separate padding from records. The querying
// party therefore pays for dummy comparisons at the same unit price as
// real ones, which is the cost model the in-process engine simulates
// with dpblock.DummyCharger.

// dpDummyRow builds the one SMC encoding all of this holder's dummy
// handles share (semantic security hides the repetition: shares are
// encrypted afresh per run, results blinded per comparison). The values
// are chosen so a dummy can match nothing — not the peer's records,
// whose encodings lie inside the schema's domain, and not the peer's
// dummies, which sit on the opposite side of it:
//
//   - equality attributes: real leaves encode as indexes ≥ 0, so Alice's
//     dummies use −1 and Bob's −2;
//   - threshold attributes: the peer's values are bounded by the
//     attribute's root domain, so Alice sits ⌊√T⌋+1 below its low edge
//     and Bob the same margin above its high edge — every cross
//     difference exceeds the circuit's threshold.
//
// A spec whose every attribute is ModeAlways (θ ≥ 1 across the board)
// accepts any pair, dummies included; such a classifier cannot host
// hidden padding and is refused.
func dpDummyRow(schema *dataset.Schema, qids []int, spec *smc.Spec, isAlice bool) ([]int64, error) {
	row := make([]int64, len(qids))
	discriminating := false
	for j, q := range qids {
		switch spec.Attrs[j].Mode {
		case smc.ModeEquality:
			if isAlice {
				row[j] = -1
			} else {
				row[j] = -2
			}
			discriminating = true
		case smc.ModeThreshold:
			attr := schema.Attr(q)
			var lo, hi int64
			if attr.Kind == dataset.Categorical {
				l, h := attr.Hierarchy.Root().LeafRange()
				lo, hi = int64(l), int64(h)
			} else {
				iv := attr.Intervals.Root()
				lo = int64(math.Round(iv.Lo * float64(spec.Scale)))
				hi = int64(math.Round(iv.Hi * float64(spec.Scale)))
			}
			sep := isqrt(spec.Attrs[j].T) + 1
			if isAlice {
				row[j] = lo - sep
			} else {
				row[j] = hi + sep
			}
			discriminating = true
		case smc.ModeAlways:
			// No ciphertexts are exchanged for the attribute.
		}
	}
	if !discriminating {
		return nil, fmt.Errorf("every classifier attribute is unconditionally accepted (θ ≥ 1), so DP padding cannot be hidden; tighten θ or disable DP blocking")
	}
	return row, nil
}

// isqrt returns ⌊√t⌋ for t ≥ 0.
func isqrt(t int64) int64 {
	if t <= 0 {
		return 0
	}
	s := int64(math.Sqrt(float64(t)))
	for s > 0 && s*s > t {
		s--
	}
	for s < math.MaxInt32 && (s+1)*(s+1) <= t {
		s++
	}
	return s
}

// dpPadEncodings lifts the holder's encoded records into the padded
// handle space: real handles carry their record's encoding, dummy
// handles the shared sentinel row.
func dpPadEncodings(enc [][]int64, dummy []int64, pad *dpblock.PadMap) [][]int64 {
	rows := make([][]int64, len(pad.RecordOf))
	for h, rec := range pad.RecordOf {
		if rec >= 0 {
			rows[h] = enc[rec]
		} else {
			rows[h] = dummy
		}
	}
	return rows
}

// dpDummyFilterBytes draws one synthetic tier CLK in Marshal's wire
// form: uniform bit positions, with the popcount sampled from the
// holder's real filters so the dummies blend into the population. A
// uniform filter's Dice against anything concentrates near the density
// overlap — the same place unrelated real pairs land — so dummies do
// not sit in a recognizable band of their own. The tier can only label a
// padded handle NonMatch, which it is. This is a statistical blend, not
// a cryptographic one; SECURITY.md states the residual distinguishing
// risk.
func dpDummyFilterBytes(rng *dpblock.PRNG, m int, real []*bloom.Filter) []byte {
	out := make([]byte, 8*((m+63)/64))
	ones := 0
	if len(real) > 0 {
		ones = real[rng.Intn(len(real))].Ones()
	}
	if ones > m {
		ones = m
	}
	for set := 0; set < ones; {
		pos := rng.Intn(m)
		// Little-endian 64-bit words make overall bit p exactly byte
		// p/8, bit p%8 — the layout Unmarshal expects.
		b, bit := &out[pos/8], byte(1)<<(pos%8)
		if *b&bit == 0 {
			*b |= bit
			set++
		}
	}
	return out
}
