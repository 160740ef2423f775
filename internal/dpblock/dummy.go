package dpblock

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"pprl/internal/anonymize"
	"pprl/internal/dataset"
	"pprl/internal/smc"
)

// Padding is real on every shape — a session holder pads the release it
// publishes, core.Link copies of both releases, a live dataset each bin as
// it is born — and whoever walks the padded lists pays for a dummy at the
// price of a record. The helpers below make a dummy behave like a record
// (an SMC row that never matches) for all three.

// Padded is a published view after Pad, with the holder-private map from
// its handles back to records.
type Padded struct {
	View *anonymize.Result
	Map  *PadMap
}

// PadCopy pads a copy of a published view, leaving the view itself — and a
// record-space blocking result built over it — untouched.
func PadCopy(v *anonymize.Result) (Padded, error) {
	cp := *v
	cp.Classes = slices.Clone(v.Classes)
	m, err := Pad(&cp)
	return Padded{View: &cp, Map: m}, err
}

// ErrTierUnderDP refuses the triage tier over a DP release: the tier sends
// the querying party one CLK per published handle, and no dummy CLK made
// from the noised release alone passes for a record's (SECURITY.md,
// "Noised bins"). Every shape asks before anything is published.
var ErrTierUnderDP = errors.New("the triage tier cannot run over DP blocking: a dummy handle's CLK would tell the querying party it is padding; drop the tier or epsilon")

// DummyRow builds the one SMC encoding all of a holder's dummy handles
// share (semantic security hides the repetition: shares are encrypted
// afresh per run, results blinded per comparison). The values are chosen so
// a dummy can match nothing — not the peer's records, whose encodings lie
// inside the schema's domain, and not the peer's dummies, which sit on the
// opposite side of it:
//
//   - equality attributes: real leaves encode as indexes ≥ 0, so Alice's
//     dummies use −1 and Bob's −2;
//   - threshold attributes: the peer's values are bounded by the
//     attribute's root domain, so Alice sits ⌊√T⌋+1 below its low edge
//     and Bob the same margin above its high edge — every cross
//     difference exceeds the circuit's threshold.
//
// A table compared against itself (dedup) carries Alice's row in the A
// role and Bob's in the B role. A classifier whose every attribute is
// ModeAlways (θ ≥ 1 on all-categorical QIDs) accepts any pair, dummies
// included, and is refused: every shape asks here before anything is
// anonymized, published or journaled.
func DummyRow(schema *dataset.Schema, qids []int, spec *smc.Spec, isAlice bool) ([]int64, error) {
	row := make([]int64, len(qids))
	hideable := false
	for j, q := range qids {
		hideable = hideable || spec.Attrs[j].Mode != smc.ModeAlways
		switch spec.Attrs[j].Mode {
		case smc.ModeEquality:
			row[j] = -2
			if isAlice {
				row[j] = -1
			}
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
			sep := smc.Isqrt(spec.Attrs[j].T) + 1
			row[j] = hi + sep
			if isAlice {
				row[j] = lo - sep
			}
		}
		// ModeAlways exchanges no ciphertexts for the attribute.
	}
	if !hideable {
		return nil, fmt.Errorf("every classifier attribute is unconditionally accepted (θ ≥ 1), so DP padding cannot be hidden; tighten θ or disable DP blocking")
	}
	return row, nil
}

// PadEncodings lifts a holder's encoded records into the padded handle
// space: real handles carry their record's encoding, dummy handles the
// sentinel row.
func PadEncodings(enc [][]int64, dummy []int64, pad *PadMap) [][]int64 {
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
