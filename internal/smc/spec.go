package smc

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"pprl/internal/blocking"
	"pprl/internal/dataset"
	"pprl/internal/distance"
	"pprl/internal/paillier"
)

// AttrMode selects the per-attribute comparison the circuit evaluates.
type AttrMode int

const (
	// ModeThreshold checks (a−b)² ≤ T: the Euclidean comparison on a
	// scaled integer encoding.
	ModeThreshold AttrMode = iota
	// ModeEquality checks a == b: the Hamming comparison with θ < 1,
	// where only distance 0 satisfies the threshold.
	ModeEquality
	// ModeAlways accepts the attribute unconditionally: a Hamming
	// comparison with θ ≥ 1, which every pair satisfies. No ciphertexts
	// are exchanged for such attributes.
	ModeAlways
)

func (m AttrMode) String() string {
	switch m {
	case ModeThreshold:
		return "threshold"
	case ModeEquality:
		return "equality"
	case ModeAlways:
		return "always"
	default:
		return fmt.Sprintf("AttrMode(%d)", int(m))
	}
}

// Packing names the encoding of Bob's result message (DESIGN.md §11).
type Packing int

// PackingPacked, the zero value and the only encoding, slot-packs the
// shuffled, blinded per-attribute outputs, filling each ciphertext with
// the d values of as many consecutive pairs of a run as it has slots for
// (⌈d/slots⌉ ciphertexts per pair when d exceeds the slots). MsgResult
// bytes, Bob's uniform units and the querying party's decryptions are paid
// per ciphertext: d per pair falls to ≈ 1/⌊slots/d⌋ in a run. A spec that
// arrives over the wire naming any other value — a peer built when 1 meant
// packed and 0 one ciphertext per attribute — is refused (resultPlan).
const PackingPacked Packing = 0

// DefaultValueBits bounds encoded attribute magnitudes (|v| < 2^30) when
// a spec was built without a schema to take the bound from
// (BoundBySchema). The bound exists so the width of a result value — the
// packed slot width — is derivable from public parameters alone.
const DefaultValueBits = 30

// packSlackBits is headroom added to the derived slot width so the
// packed magnitude analysis never sits exactly on a power-of-two edge.
const packSlackBits = 2

// AttrSpec configures one attribute of the secure comparison.
type AttrSpec struct {
	Mode AttrMode
	// T is the inclusive bound on the squared integer difference for
	// ModeThreshold.
	T int64
}

// Spec is the public classifier description all three parties share: the
// per-attribute comparison modes and integer thresholds, plus the fixed-
// point scale used to encode continuous values.
type Spec struct {
	Attrs []AttrSpec
	// Scale is the fixed-point factor applied to continuous values
	// before encryption (v ↦ round(v·Scale)).
	Scale int64
	// Packing names Bob's result encoding; PackingPacked is the only one.
	// Both ends derive the same PackPlan from the spec and the public
	// modulus, so no extra negotiation happens on the wire.
	Packing Packing
	// ValueBits bounds encoded attribute magnitudes (|v| < 2^ValueBits);
	// BoundBySchema fills it from the attributes' public domains, 0 means
	// DefaultValueBits. The width of a result value is derived from it,
	// and the engines reject out-of-bound records before any ciphertext
	// is built.
	ValueBits int

	// widest names the attribute whose domain set ValueBits, for the
	// error a too-small key gets. It does not cross the wire.
	widest string
}

// BoundBySchema derives ValueBits from what all three parties already
// share for the view exchange: the largest magnitude an encoded value of
// any compared quasi-identifier can take — the last leaf index of a
// categorical attribute's hierarchy, max(|Min|, |Max|)·Scale of a
// continuous one's interval hierarchy. A record outside its published
// domain is then refused by the holders' bound check instead of widening
// every slot for every pair. qids are the attributes s.Attrs describes, in
// order.
//
// The one thing compared like a record that is not one is the sentinel row
// a holder pads a differentially private release with (dpblock.DummyRow):
// it sits outside the domain so that it matches nothing — at −1 or −2 on
// an equality attribute, ⌊√T⌋+1 beyond either end on a threshold one — and
// the bound admits it.
func (s *Spec) BoundBySchema(schema *dataset.Schema, qids []int) {
	s.ValueBits, s.widest = 1, ""
	for j, q := range qids {
		if s.Attrs[j].Mode == ModeAlways {
			continue // exchanges no ciphertext, and CheckRecords skips it
		}
		attr := schema.Attr(q)
		var top float64 // the largest encoded magnitude
		if attr.Kind == dataset.Categorical {
			top = float64(attr.Hierarchy.NumLeaves() - 1)
		} else {
			top = math.Ceil(math.Max(math.Abs(attr.Intervals.Min()), math.Abs(attr.Intervals.Max())) * float64(s.Scale))
		}
		if s.Attrs[j].Mode == ModeEquality {
			top = math.Max(top, 2)
		} else {
			top += math.Ceil(math.Sqrt(math.Max(float64(s.Attrs[j].T), 0))) + 1
		}
		// From 2^62 on the bound is every int64's: |a−b| < 2^64, so
		// d² < 2^{2·63+2} (slotBits), and CheckRecords has nothing to refuse.
		b := 63
		if top < 1<<62 {
			b = bits.Len64(uint64(top))
		}
		if b > s.ValueBits {
			s.ValueBits, s.widest = b, attr.Name
		}
	}
}

// valueBits resolves the packing magnitude bound.
func (s *Spec) valueBits() int {
	if s.ValueBits > 0 {
		return s.ValueBits
	}
	return DefaultValueBits
}

// slotBits derives the packed slot width w from the public parameters:
// Bob's blinded output is ρ·(d²−T−1)+δ with ρ,δ < 2^blindBits,
// |d| < 2^{ValueBits+1} and T the largest threshold, so its magnitude is
// below 2^{blindBits+mag+1}; one more bit gives the sign offset 2^{w-1}
// headroom, plus fixed slack.
func (s *Spec) slotBits() int {
	mag := 2*s.valueBits() + 2 // d² = (a−b)² < 2^{2·ValueBits+2}
	for _, a := range s.Attrs {
		if a.Mode != ModeThreshold {
			continue
		}
		t := a.T
		if t < 0 {
			t = -t
		}
		if tb := bits.Len64(uint64(t) + 1); tb > mag {
			mag = tb
		}
	}
	return blindBits + mag + 2 + packSlackBits
}

// fits refuses a modulus whose signed range cannot hold one blinded
// result value, slotBits wide. The querying party reads a verdict from the
// value decrypted mod N, so a wider one would wrap into a wrong verdict.
func (s *Spec) fits(modBits int) error {
	width := s.slotBits()
	if width <= modBits-1 {
		return nil
	}
	cause := fmt.Sprintf("Spec.ValueBits = %d", s.valueBits())
	if s.widest != "" {
		cause = fmt.Sprintf("attribute %q, whose domain × scale takes %d bits", s.widest, s.valueBits())
	}
	return fmt.Errorf("a blinded result takes %d bits for %s, which a %d-bit modulus cannot hold: use a larger key", width, cause, modBits)
}

// resultPlan is the shape of a run's MsgResult stream: which frame carries
// how many ciphertexts, holding the values of how many pairs. It is a pure
// function of the spec and the modulus size, so Bob and the querying party
// derive the same one and nothing about it crosses the wire.
type resultPlan struct {
	pack paillier.PackPlan
	// d is the number of active attributes: the values, and the slots,
	// one pair takes.
	d int
	// group is how many consecutive pairs of a run share one packed
	// ciphertext: ⌊slots/d⌋, and 1 when a ciphertext has room for one pair
	// only or a pair needs several (d > slots) — every frame then carries
	// its own pair's ciphertexts.
	group int
}

// resultPlan derives the run's frame plan, failing fast on a result
// encoding this code does not speak and when one result value does not
// fit the modulus.
func (s *Spec) resultPlan(modBits int) (resultPlan, error) {
	if s.Packing != PackingPacked {
		return resultPlan{}, fmt.Errorf("result encoding %d is not spoken here: the only one is packed (%d)", s.Packing, PackingPacked)
	}
	if err := s.fits(modBits); err != nil {
		return resultPlan{}, err
	}
	pack, err := paillier.NewPackPlan(modBits, s.slotBits())
	if err != nil {
		return resultPlan{}, err
	}
	p := resultPlan{pack: pack, d: len(s.activeAttrs()), group: 1}
	if p.d > 0 && pack.Slots/p.d > 1 {
		p.group = pack.Slots / p.d
	}
	return p, nil
}

// frame describes the result frame of the run's pair at position x with
// left more to follow: the number of ciphertexts in its Res and the number
// of pairs — ending with this one — whose values they hold. A pair's
// values never straddle two groups; the ciphertext of a group rides on the
// frame of its last pair, which is the g-th of the group or the last of
// the run, and the frames before it are empty (0, 0).
func (p resultPlan) frame(x, left int) (pairs, cts int) {
	switch {
	case p.group == 1:
		return 1, p.pack.Ciphertexts(p.d)
	case (x+1)%p.group == 0 || left == 0:
		return x%p.group + 1, 1
	}
	return 0, 0
}

// CheckRecords enforces the magnitude bound on a holder's encoded records
// before any of them is encrypted: the modulus was checked against values
// below 2^ValueBits (fits), and a value at or beyond it could overflow its
// slot, which packing cannot detect after the fact (the carry lands in a
// neighbouring slot).
func (s *Spec) CheckRecords(records [][]int64) error {
	if s.valueBits() >= 63 {
		return nil
	}
	limit := int64(1) << uint(s.valueBits())
	active := s.activeAttrs()
	for i, rec := range records {
		for _, ai := range active {
			if v := rec[ai]; v <= -limit || v >= limit {
				return fmt.Errorf("record %d attribute %d value %d lies outside the attribute's published domain: the bound is ±2^%d (Spec.ValueBits)", i, ai, v, s.valueBits())
			}
		}
	}
	return nil
}

// SpecFromRule translates the querying party's matching rule into circuit
// parameters. Hamming attributes become equality tests (or ModeAlways if
// θ ≥ 1); Euclidean attributes become squared-threshold tests with
// T = ⌊(θ·norm·scale)²⌋ — for integer-valued data at scale 1 this is
// exactly equivalent to the clear-text rule, because the squared integer
// difference can never land strictly between T and (θ·norm)². Metrics
// outside {Hamming, Euclidean} (e.g. edit distance) need a different
// circuit and are rejected.
func SpecFromRule(rule *blocking.Rule, scale int64) (*Spec, error) {
	if scale < 1 {
		return nil, fmt.Errorf("smc: scale must be ≥ 1, got %d", scale)
	}
	spec := &Spec{Scale: scale, Attrs: make([]AttrSpec, rule.Len())}
	for i := 0; i < rule.Len(); i++ {
		theta := rule.Threshold(i)
		switch m := rule.Metric(i).(type) {
		case distance.Hamming:
			if theta >= 1 {
				spec.Attrs[i] = AttrSpec{Mode: ModeAlways}
			} else {
				spec.Attrs[i] = AttrSpec{Mode: ModeEquality}
			}
		case distance.Euclidean:
			bound := theta * m.Norm * float64(scale)
			spec.Attrs[i] = AttrSpec{Mode: ModeThreshold, T: int64(math.Floor(bound * bound))}
		default:
			return nil, fmt.Errorf("smc: attribute %d uses metric %q, which has no arithmetic circuit", i, rule.Metric(i).Name())
		}
	}
	return spec, nil
}

// EncodeRecords converts a dataset's QID projection into the integer
// vectors the protocol encrypts: categorical leaves become their leaf
// index, continuous values are fixed-point scaled.
func EncodeRecords(d *dataset.Dataset, qids []int, scale int64) [][]int64 {
	return AppendEncoded(make([][]int64, 0, d.Len()), d, qids, scale)
}

// AppendEncoded extends rows, the encodings of d's first len(rows) records,
// with the records d has grown by: a growing dataset pays once per record.
// The new rows are cut from backing arrays of encodeBlock values, each row
// capped at its own length, so an append to one cannot write into the next.
func AppendEncoded(rows [][]int64, d *dataset.Dataset, qids []int, scale int64) [][]int64 {
	recs, w := d.Records()[len(rows):], len(qids)
	if len(recs) == 0 {
		return rows
	}
	categorical := make([]bool, w)
	for j, q := range qids {
		categorical[j] = d.Schema().Attr(q).Kind == dataset.Categorical
	}
	rows = slices.Grow(rows, len(recs))
	per := encodeBlock / max(w, 1) // rows a backing array holds
	var backing []int64
	for i := range recs {
		o := i % per * w
		if o == 0 {
			backing = make([]int64, min(per, len(recs)-i)*w)
		}
		cells, row := recs[i].Cells, backing[o:o+w:o+w]
		for j, q := range qids {
			if categorical[j] {
				lo, _ := cells[q].Node.LeafRange()
				row[j] = int64(lo)
			} else {
				row[j] = int64(math.Round(cells[q].Num * float64(scale)))
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// encodeBlock is the number of values in one backing array of encoded rows:
// 32 KiB, the largest size the allocator serves from its small-object
// classes. A paper-scale relation's rows in one array (800 KB) would be a
// large object; measured on a 2-vCPU VM, the plaintext paper-scale link's
// peak RSS read ≈ 1–3 MB above per-row allocation that way and ≈ 3 MB below
// it in blocks, at the same speed.
const encodeBlock = 4096

// CheckIntegral refuses a record whose continuous quasi-identifier, times
// scale, is not a whole number, and one whose continuous quasi-identifier
// is not a finite number. The circuit compares integers, so encoding
// would round it: at scale 1, 10.0 and 10.4 both become 10, and a pair the
// clear-text rule tells apart is bought as a match; NaN and ±Inf encode
// alike, to the least int64. Float rounding error passes
// (|x − round(x)| ≤ 1e-9·max(1, |x|)). Records are numbered from first in
// the error.
func CheckIntegral(schema *dataset.Schema, recs []dataset.Record, qids []int, scale int64, first int) error {
	var cont []int // the continuous QIDs
	for _, q := range qids {
		if schema.Attr(q).Kind == dataset.Continuous {
			cont = append(cont, q)
		}
	}
	for i := range recs {
		for _, q := range cont {
			v := recs[i].Cells[q].Num
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("record %d attribute %q: %v is not a finite number", first+i, schema.Attr(q).Name, v)
			}
			if x := v * float64(scale); math.Abs(x-math.Round(x)) > 1e-9*math.Max(1, math.Abs(x)) {
				return fmt.Errorf("record %d attribute %q value %v is not a whole multiple of 1/%d: the circuit compares integers and would round it", first+i, schema.Attr(q).Name, v, scale)
			}
		}
	}
	return nil
}

// Matches evaluates the spec's integer arithmetic in the clear: the
// reference semantics both the secure circuit and the plaintext oracle
// must agree with. The square of a difference is taken exactly, over 128
// bits: |a−b| of two int64 values can reach 2^64 − 1.
func (s *Spec) Matches(a, b []int64) bool {
	for i, att := range s.Attrs {
		switch att.Mode {
		case ModeEquality:
			if a[i] != b[i] {
				return false
			}
		case ModeThreshold:
			d := absDiff(a[i], b[i])
			if hi, lo := bits.Mul64(d, d); att.T < 0 || hi != 0 || lo > uint64(att.T) {
				return false
			}
		}
	}
	return true
}

// absDiff returns |a−b|, exact for every pair of int64 values.
func absDiff(a, b int64) uint64 {
	d := uint64(a) - uint64(b)
	if a < b {
		d = -d
	}
	return d
}

// Isqrt returns ⌊√t⌋ — the largest |a−b| a threshold attribute with bound
// t accepts — for t ≥ 0, and 0 for t < 0.
func Isqrt(t int64) int64 {
	if t <= 0 {
		return 0
	}
	r := uint64(math.Sqrt(float64(t))) // within one of the root
	for hi, lo := bits.Mul64(r, r); hi != 0 || lo > uint64(t); hi, lo = bits.Mul64(r, r) {
		r--
	}
	for hi, lo := bits.Mul64(r+1, r+1); hi == 0 && lo <= uint64(t); hi, lo = bits.Mul64(r+1, r+1) {
		r++
	}
	return int64(r)
}
