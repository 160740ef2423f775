package smc

import (
	"encoding/binary"
	"math"
	"math/big"
	"slices"
	"testing"
)

// TestSquaresAreExact: a squared difference past 2^63 is taken exactly by
// the reference, the compiled oracle and the secure circuit alike. At
// |d| = 3.1e9, d² = 9.61e18 used to wrap to a negative int64 and buy a
// Match; the int64 extremes lie 2^64 − 1 apart.
func TestSquaresAreExact(t *testing.T) {
	const far = 3_100_000_000
	for _, tc := range []struct {
		name      string
		valueBits int
		T         int64
		a, b      int64
		want      bool
	}{
		{"|d| = 3.1e9", 33, 100, far, 0, false},
		{"|d| = −3.1e9", 33, 100, 0, far, false},
		{"|d| = ⌊√T⌋", 33, 100, far, far - 10, true},
		{"|d| = −⌊√T⌋", 33, 100, 0, 10, true},
		{"|d| = ⌊√T⌋ + 1", 33, 100, far, far - 11, false},
		{"d = 0 far out", 33, 100, far, far, true},
		{"int64 extremes", 63, math.MaxInt64, math.MaxInt64, math.MinInt64, false},
		{"extremes' neighbours", 63, math.MaxInt64, math.MinInt64 + 1, math.MinInt64, true},
		{"√MaxInt64 apart", 63, math.MaxInt64, 3037000499, 0, true},
		{"one more", 63, math.MaxInt64, 3037000500, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := &Spec{Scale: 1, ValueBits: tc.valueBits, Attrs: []AttrSpec{{Mode: ModeThreshold, T: tc.T}}}
			alice, bob := [][]int64{{tc.a}}, [][]int64{{tc.b}}
			if got := spec.Matches(alice[0], bob[0]); got != tc.want {
				t.Errorf("Spec.Matches = %v, want %v", got, tc.want)
			}
			sec, err := NewLocalSecure(spec, alice, bob, testKeyBits)
			if err != nil {
				t.Fatal(err)
			}
			defer sec.Close()
			for name, cmp := range map[string]Comparator{"plain": NewPlainComparator(spec, alice, bob), "secure": sec} {
				got, err := cmp.CompareBatch([][2]int{{0, 0}})
				if err != nil {
					t.Fatal(err)
				}
				if got[0] != tc.want {
					t.Errorf("%s comparator: verdict %v, want %v", name, got[0], tc.want)
				}
			}
		})
	}
}

// TestIsqrt pins ⌊√t⌋ at the squares and their neighbours, up to MaxInt64,
// where a float root rounds up.
func TestIsqrt(t *testing.T) {
	for _, r := range []int64{0, 1, 2, 3, 10, 1 << 20, 94906265, 3037000499} {
		if got := Isqrt(r * r); got != r {
			t.Errorf("Isqrt(%d²) = %d", r, got)
		}
		if r > 0 {
			if got := Isqrt(r*r - 1); got != r-1 {
				t.Errorf("Isqrt(%d² − 1) = %d", r, got)
			}
		}
	}
	if got := Isqrt(math.MaxInt64); got != 3037000499 {
		t.Errorf("Isqrt(MaxInt64) = %d, want 3037000499", got)
	}
	if got := Isqrt(-5); got != 0 {
		t.Errorf("Isqrt(−5) = %d, want 0", got)
	}
}

// matchesBig is the reference of the reference: Spec.Matches with every
// difference squared in math/big.
func matchesBig(s *Spec, a, b []int64) bool {
	for i, att := range s.Attrs {
		switch att.Mode {
		case ModeEquality:
			if a[i] != b[i] {
				return false
			}
		case ModeThreshold:
			d := new(big.Int).Sub(big.NewInt(a[i]), big.NewInt(b[i]))
			if d.Mul(d, d).Cmp(big.NewInt(att.T)) > 0 {
				return false
			}
		}
	}
	return true
}

// fuzzEdges are the values where a squared difference or a radius sits on
// an edge: the int64 extremes, ±2^62, the root of MaxInt64 and the 3.1e9
// whose square wrapped.
var fuzzEdges = []int64{
	0, 1, -1, 1 << 62, -1 << 62, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
	3037000499, 3037000500, -3037000500, 3_100_000_000, -3_100_000_000,
}

// fuzzBytes hands out a fuzz input a field at a time, zeros once it is
// used up.
type fuzzBytes []byte

func (f *fuzzBytes) byte() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

func (f *fuzzBytes) uint64() uint64 {
	var buf [8]byte
	n := copy(buf[:], *f)
	*f = (*f)[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

// value draws a record value: small, an edge, an edge nudged, or any int64.
func (f *fuzzBytes) value() int64 {
	switch tag := f.byte(); tag % 4 {
	case 0:
		return int64(int8(f.byte()))
	case 1:
		return fuzzEdges[int(tag/4)%len(fuzzEdges)]
	case 2:
		return fuzzEdges[int(tag/4)%len(fuzzEdges)] + int64(int8(f.byte()))
	default:
		return int64(f.uint64())
	}
}

// threshold draws T ∈ [−128, MaxInt64]: small (negative included), a
// square or one below it, near MaxInt64, or any non-negative T.
func (f *fuzzBytes) threshold() int64 {
	switch tag := f.byte(); tag % 4 {
	case 0:
		return int64(int8(f.byte()))
	case 1:
		r := int64(f.uint64() % 3037000500)
		return r*r - int64(tag/4%2)*min(r, 1)
	case 2:
		return math.MaxInt64 - int64(f.byte())
	default:
		return int64(f.uint64() >> 1)
	}
}

// packCase is a spec and two relations at an edge of the packed layout:
// rest is how many of the spec's tests the word leaves to the rows, bits
// how many low bits of the word its fields take.
type packCase struct {
	name       string
	attrs      []AttrSpec
	alice, bob [][]int64
	rest, bits int
}

// √MaxInt64 + 1 is the widest radius a threshold can have; r33 and r34
// are the spans at which R + lim − 1 reaches 2^33 − 1 and 2^33 for it.
const (
	limMax = 3037000500
	r33    = 1<<33 - limMax
	r34    = r33 + 1
)

var packCases = []packCase{
	{"every column packs", []AttrSpec{{Mode: ModeThreshold, T: 100}, {Mode: ModeEquality}, {Mode: ModeAlways}, {Mode: ModeThreshold}},
		[][]int64{{1, 3, 9, 4}, {20, 3, 0, 4}, {12, 5, 1, 5}}, [][]int64{{11, 3, 7, 4}, {0, 4, 2, 4}, {10, 3, 3, 5}}, 0, 14},
	{"a column spans the int64 extremes", []AttrSpec{{Mode: ModeThreshold, T: math.MaxInt64}, {Mode: ModeEquality}},
		[][]int64{{math.MinInt64, 1}, {math.MaxInt64, 2}}, [][]int64{{math.MinInt64 + 1, 1}, {limMax - 1, 2}, {0, 1}}, 1, 3},
	{"fields fill the word", []AttrSpec{{Mode: ModeThreshold, T: 1 << 20}, {Mode: ModeThreshold, T: 1 << 20}, {Mode: ModeEquality}},
		[][]int64{{0, 4e6, 0}, {4e6, 0, 16383}}, [][]int64{{1024, 4e6 - 1025, 0}, {4e6 - 1024, 1, 16383}}, 0, 64},
	{"fields overflow the word", []AttrSpec{{Mode: ModeThreshold, T: 1 << 20}, {Mode: ModeThreshold, T: 1 << 20}, {Mode: ModeEquality}, {Mode: ModeThreshold, T: 1 << 20}, {Mode: ModeEquality}},
		[][]int64{{0, 4e6, 0, 4e6, 0}, {4e6, 0, 16384, 1024, 3}}, [][]int64{{1024, 4e6 - 1025, 0, 4e6, 3}, {4e6 - 1024, 1, 16384, 0, 3}}, 2, 52},
	{"lim 1, R + lim − 1 = 2^F − 1", []AttrSpec{{Mode: ModeEquality}},
		[][]int64{{0}, {7}}, [][]int64{{0}, {1}, {6}, {7}}, 0, 5},
	{"lim 1, R + lim − 1 = 2^F", []AttrSpec{{Mode: ModeThreshold, T: 0}},
		[][]int64{{0}, {8}}, [][]int64{{1}, {8}, {7}}, 0, 6},
	{"lim √MaxInt64 + 1, R + lim − 1 = 2^F − 1", []AttrSpec{{Mode: ModeThreshold, T: math.MaxInt64}},
		[][]int64{{0}, {r33}}, [][]int64{{limMax - 1}, {limMax}, {r33}, {r33 - limMax + 1}, {r33 - limMax}}, 0, 35},
	{"lim √MaxInt64 + 1, R + lim − 1 = 2^F", []AttrSpec{{Mode: ModeThreshold, T: math.MaxInt64}},
		[][]int64{{0}, {r34}}, [][]int64{{limMax - 1}, {limMax}, {r34 - limMax + 1}, {r34 - limMax}}, 0, 36},
	{"T < 0", []AttrSpec{{Mode: ModeThreshold, T: -1}, {Mode: ModeEquality}},
		[][]int64{{0, 1}}, [][]int64{{0, 1}, {5, 1}}, 1, 2},
	{"every attribute ModeAlways", []AttrSpec{{Mode: ModeAlways}, {Mode: ModeAlways}},
		[][]int64{{1, 2}, {math.MinInt64, math.MaxInt64}}, [][]int64{{3, 4}}, 0, 0},
	{"a zero-span column", []AttrSpec{{Mode: ModeThreshold, T: 4}, {Mode: ModeEquality}},
		[][]int64{{5, 1}, {5, 2}}, [][]int64{{5, 1}, {5, 3}}, 0, 9},
}

// seed encodes the case as FuzzPlainComparator's input: every threshold
// and value drawn exactly, every batch one pair.
func (c packCase) seed() []byte {
	out := []byte{byte(len(c.attrs) - 1), byte(len(c.alice) - 1), byte(len(c.bob) - 1)}
	for _, a := range c.attrs {
		out = append(out, byte(a.Mode))
		switch {
		case a.Mode != ModeThreshold:
		case a.T < 0:
			out = append(out, 0, byte(int8(a.T)))
		default:
			out = binary.LittleEndian.AppendUint64(append(out, 3), uint64(a.T)<<1)
		}
	}
	for _, rows := range [][][]int64{c.alice, c.bob} {
		for _, r := range rows {
			for _, v := range r {
				out = binary.LittleEndian.AppendUint64(append(out, 3), uint64(v))
			}
		}
	}
	return out
}

// FuzzPlainComparator holds the packed oracle to the reference: random
// specs over every mode and thresholds from −128 to MaxInt64, rows at the
// int64 edges — so columns pack, fall to the scalar remainder, or no
// longer fit the word — and pair lists in run order and scrambled, cut
// into batches. Every CompareBatch and Compare verdict must equal
// Spec.Matches — itself checked against math/big — and every pair counts
// one invocation. The seeds include every packCase.
func FuzzPlainComparator(f *testing.F) {
	f.Add([]byte{3, 0, 1, 100, 1, 2, 2, 1, 52, 0, 0, 1, 52, 0, 0, 7, 9})
	f.Add([]byte{4, 5, 1, 2, 2, 0, 3, 3, 1, 5, 1, 21, 1, 21, 1, 25, 1, 29, 0, 9, 0, 8, 255, 17})
	f.Add([]byte{2, 3, 3, 255, 255, 255, 255, 255, 255, 255, 127, 1, 1, 1, 1, 21, 1, 25, 6, 250, 44})
	for _, c := range packCases {
		f.Add(c.seed())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		d, nA, nB := 1+int(in.byte()%5), 1+int(in.byte()%6), 1+int(in.byte()%6)
		spec := &Spec{Scale: 1, Attrs: make([]AttrSpec, d)}
		for k := range spec.Attrs {
			spec.Attrs[k].Mode = AttrMode(in.byte() % 3)
			if spec.Attrs[k].Mode == ModeThreshold {
				spec.Attrs[k].T = in.threshold()
			}
		}
		rows := func(n int) [][]int64 {
			out := make([][]int64, n)
			for i := range out {
				out[i] = make([]int64, d)
				for k := range out[i] {
					out[i][k] = in.value()
				}
			}
			return out
		}
		alice, bob := rows(nA), rows(nB)

		// Every pair, in run order and then in an order the input scrambles.
		var walk [][2]int
		for i := range alice {
			for j := range bob {
				walk = append(walk, [2]int{i, j})
			}
		}
		scrambled := slices.Clone(walk)
		for x := len(scrambled) - 1; x > 0; x-- {
			y := int(in.byte()) % (x + 1)
			scrambled[x], scrambled[y] = scrambled[y], scrambled[x]
		}

		p := NewPlainComparator(spec, alice, bob)
		var want int64
		for _, list := range [][][2]int{walk, scrambled, walk} {
			for len(list) > 0 {
				n := 1 + int(in.byte())%len(list)
				got, err := p.CompareBatch(list[:n])
				if err != nil {
					t.Fatal(err)
				}
				for x, pr := range list[:n] {
					a, b := alice[pr[0]], bob[pr[1]]
					ref := spec.Matches(a, b)
					if exact := matchesBig(spec, a, b); ref != exact {
						t.Fatalf("spec %+v, %v vs %v: Spec.Matches says %v, math/big %v", spec.Attrs, a, b, ref, exact)
					}
					if got[x] != ref {
						t.Fatalf("spec %+v, %v vs %v: CompareBatch says %v, Spec.Matches %v", spec.Attrs, a, b, got[x], ref)
					}
					if one, err := p.Compare(pr[0], pr[1]); err != nil || one != ref {
						t.Fatalf("spec %+v, %v vs %v: Compare says %v (%v), Spec.Matches %v", spec.Attrs, a, b, one, err, ref)
					}
				}
				want += 2 * int64(n)
				list = list[n:]
			}
		}
		if p.Invocations() != want {
			t.Fatalf("%d invocations for %d pairs bought", p.Invocations(), want)
		}
	})
}

// TestPlainCompareBatchAllocatesNothing: once its verdict buffer has grown
// and the records are packed, the oracle's purchase path allocates nothing
// per call.
func TestPlainCompareBatchAllocatesNothing(t *testing.T) {
	spec := testSpec()
	alice, bob := benchRecords4(16, 1), benchRecords4(16, 2)
	pairs := make([][2]int, 0, 256)
	for i := range alice {
		for j := range bob {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	p := NewPlainComparator(spec, alice, bob)
	if _, err := p.CompareBatch(pairs); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { p.CompareBatch(pairs) }); n != 0 {
		t.Errorf("CompareBatch allocates %v times per call", n)
	}
}

// TestNewPlainComparatorIsOd: construction allocates the same over 10
// rows as over 10,000 — the records are packed on the first comparison,
// not here, so the live engine's oracle per batch stays O(d).
func TestNewPlainComparatorIsOd(t *testing.T) {
	spec := testSpec()
	allocs := func(n int) float64 {
		alice, bob := benchRecords4(n, 1), benchRecords4(n, 2)
		return testing.AllocsPerRun(100, func() { NewPlainComparator(spec, alice, bob) })
	}
	if small, large := allocs(10), allocs(10_000); small != large {
		t.Errorf("NewPlainComparator allocates %v times over 10 rows, %v over 10,000", small, large)
	}
}
