package incremental

import (
	"crypto/sha256"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/dataset"
	"pprl/internal/dpblock"
	"pprl/internal/journal"
	"pprl/internal/vgh"
)

// TestBatchDigestMatchesHashRecord: core.HashRecord appends a record's
// fields into one buffer and writes it once, where it called HashField
// per field; every journaled batch mark and frozen inputs digest was
// computed the old way, so BatchDigest must equal a digest built field by
// field on any record — with and without a class label, negative,
// non-integer and huge numbers, and category names longer than any buffer
// has been.
func TestBatchDigestMatchesHashRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	nums := []float64{0, math.Copysign(0, -1), -17, 38.5, -0.125, 1e21, -3.3e-7, math.MaxFloat64, 1 << 53}
	reference := func(side int, recs []dataset.Record) [32]byte {
		h := sha256.New()
		journal.HashField(h, "side", strconv.Itoa(side))
		journal.HashField(h, "records", strconv.Itoa(len(recs)))
		for _, rec := range recs {
			journal.HashField(h, "id", strconv.Itoa(rec.EntityID))
			if rec.Class != "" {
				journal.HashField(h, "class", rec.Class)
			}
			for _, c := range rec.Cells {
				if c.Node != nil {
					journal.HashField(h, "cat", c.Node.Value)
				} else {
					journal.HashField(h, "num", strconv.FormatFloat(c.Num, 'g', -1, 64))
				}
			}
		}
		return [32]byte(h.Sum(nil))
	}
	for round := 0; round < 300; round++ {
		recs := make([]dataset.Record, rng.Intn(12))
		for r := range recs {
			rec := dataset.Record{EntityID: rng.Intn(1<<20) - 1000, Cells: make([]dataset.Cell, rng.Intn(17))}
			if rng.Intn(2) == 0 {
				rec.Class = [...]string{">50K", "<=50K", "x;y=z:", strings.Repeat("é", 40)}[rng.Intn(4)]
			}
			for c := range rec.Cells {
				switch rng.Intn(4) {
				case 0:
					rec.Cells[c].Node = &vgh.Node{Value: strings.Repeat("Never-married;", 1+rng.Intn(300))}
				case 1:
					rec.Cells[c].Node = &vgh.Node{Value: [...]string{"", "Male", "Prof-school"}[rng.Intn(3)]}
				case 2:
					rec.Cells[c].Num = nums[rng.Intn(len(nums))]
				default:
					rec.Cells[c].Num = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(30)-10))
				}
			}
			recs[r] = rec
		}
		side := rng.Intn(2)
		if got, want := BatchDigest(side, recs), reference(side, recs); got != want {
			t.Fatalf("round %d: BatchDigest of %d records differs from the field-by-field digest", round, len(recs))
		}
	}
}

// TestBinNewMatchesKey: binNew looks bins up by appendBinKey, not by
// Sequence.Key. Over random Adult batches on both sides, every side's bin
// ids, sequences and member lists must be those a Key-keyed binning of its
// records in append order gives.
func TestBinNewMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	alice, bob := dataset.SplitOverlap(adult.Generate(1500, 57), rng)
	for _, level := range []int{1, dpblock.DefaultLevel, 4} {
		e, err := New(alice.Schema(), Config{QIDs: adult.DefaultQIDs(), Level: level})
		if err != nil {
			t.Fatal(err)
		}
		rest := [2][]dataset.Record{alice.Records(), bob.Records()}
		for len(rest[0])+len(rest[1]) > 0 {
			side := rng.Intn(2)
			if len(rest[side]) == 0 {
				side = 1 - side
			}
			n := min(len(rest[side]), 1+rng.Intn(120))
			if _, err := e.Append(side, rest[side][:n]); err != nil {
				t.Fatal(err)
			}
			rest[side] = rest[side][n:]
		}
		for x, s := range e.sides {
			byKey := map[string]int{}
			var want []bin
			for i := 0; i < s.data.Len(); i++ {
				seq, err := dpblock.AppendBinRecord(nil, s.data, e.qids, i, level)
				if err != nil {
					t.Fatal(err)
				}
				bi, ok := byKey[seq.Key()]
				if !ok {
					bi = len(want)
					byKey[seq.Key()] = bi
					want = append(want, bin{seq: seq})
				}
				want[bi].members = append(want[bi].members, i)
			}
			if len(s.bins) != len(want) || len(s.byKey) != len(want) {
				t.Fatalf("level %d side %d: %d bins (%d keys), Key gives %d", level, x, len(s.bins), len(s.byKey), len(want))
			}
			for bi := range want {
				if !s.bins[bi].seq.Equal(want[bi].seq) || !slices.Equal(s.bins[bi].members, want[bi].members) {
					t.Fatalf("level %d side %d bin %d: %v with members %v, Key gives %v with %v",
						level, x, bi, s.bins[bi].seq, s.bins[bi].members, want[bi].seq, want[bi].members)
				}
			}
		}
	}
}
