package smc_test

import (
	"math/rand"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/smc"
)

// purchaseRecorder passes a link's batches to the plaintext oracle and
// keeps every sixth Alice run of them — the pairs one Alice record meets
// in a row, in walk order — with the spec and encodings to replay them.
type purchaseRecorder struct {
	*smc.PlainComparator
	spec       *smc.Spec
	alice, bob [][]int64
	pairs      [][2]int
	runs, last int
	chunk      int // the largest batch handed over
}

func (r *purchaseRecorder) CompareBatch(pairs [][2]int) ([]bool, error) {
	for _, p := range pairs {
		if p[0] != r.last {
			r.last = p[0]
			r.runs++
		}
		if r.runs%6 == 1 {
			r.pairs = append(r.pairs, p)
		}
	}
	r.chunk = max(r.chunk, len(pairs))
	return r.PlainComparator.CompareBatch(pairs)
}

// BenchmarkPlainCompareBatch replays the purchase path of a paper-scale
// link — 20,108 × 20,108 Adult rows, k = 32, 1.5 % allowance — through a
// fresh oracle, in batches of the size the link handed over, each written
// into one reused buffer as the resolve kernel writes its own: one Alice
// run per class-pair row, in walk order, every sixth run of the whole walk
// (≈ 1 M pairs, 16 MB) so the replay keeps the walk's mix of groups.
func BenchmarkPlainCompareBatch(b *testing.B) {
	alice, bob := dataset.SplitOverlap(adult.Generate(30162, 7), rand.New(rand.NewSource(8)))
	rec := &purchaseRecorder{last: -1}
	cfg := core.DefaultConfig(adult.DefaultQIDs())
	cfg.Comparator = func(a, bo [][]int64, spec *smc.Spec, _ int) (smc.Comparator, error) {
		rec.PlainComparator, rec.spec, rec.alice, rec.bob = smc.NewPlainComparator(spec, a, bo), spec, a, bo
		return rec, nil
	}
	if _, err := core.Link(core.Holder{Data: alice}, core.Holder{Data: bob}, cfg); err != nil {
		b.Fatal(err)
	}
	buf := make([][2]int, rec.chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		oracle := smc.NewPlainComparator(rec.spec, rec.alice, rec.bob)
		for lo := 0; lo < len(rec.pairs); lo += rec.chunk {
			batch := buf[:copy(buf, rec.pairs[lo:])]
			if _, err := oracle.CompareBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rec.pairs)), "ns/pair")
}
