package smc

import (
	"cmp"
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

// threshold draws T ∈ [0, MaxInt64]: small, a square or one below it,
// near MaxInt64, or any.
func (f *fuzzBytes) threshold() int64 {
	switch tag := f.byte(); tag % 4 {
	case 0:
		return int64(f.byte())
	case 1:
		r := int64(f.uint64() % 3037000500)
		return r*r - int64(tag/4%2)*min(r, 1)
	case 2:
		return math.MaxInt64 - int64(f.byte())
	default:
		return int64(f.uint64() >> 1)
	}
}

// FuzzPlainComparator holds the compiled, self-ordering oracle to the
// reference: random specs over every mode and thresholds up to MaxInt64,
// rows at the int64 edges, pair lists in run order and scrambled, cut into
// batches between which the attribute order may change. Every CompareBatch
// and Compare verdict must equal Spec.Matches — itself checked against
// math/big — and every pair counts one invocation.
func FuzzPlainComparator(f *testing.F) {
	f.Add([]byte{3, 0, 1, 100, 1, 2, 2, 1, 52, 0, 0, 1, 52, 0, 0, 7, 9})
	f.Add([]byte{4, 5, 1, 2, 2, 0, 3, 3, 1, 5, 1, 21, 1, 21, 1, 25, 1, 29, 0, 9, 0, 8, 255, 17})
	f.Add([]byte{2, 3, 3, 255, 255, 255, 255, 255, 255, 255, 127, 1, 1, 1, 1, 21, 1, 25, 6, 250, 44})
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
				if !slices.IsSortedFunc(p.terms, func(x, y term) int { return cmp.Compare(y.fails, x.fails) }) {
					t.Fatalf("terms out of order after a batch: %+v", p.terms)
				}
				list = list[n:]
			}
		}
		if p.Invocations() != want {
			t.Fatalf("%d invocations for %d pairs bought", p.Invocations(), want)
		}
	})
}

// TestPlainCompareBatchAllocatesNothing: once its verdict buffer has grown,
// the oracle's purchase path allocates nothing per call.
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
