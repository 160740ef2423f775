package smc

import (
	"fmt"
	"runtime"
	"testing"

	"pprl/internal/adult"
)

// benchSpec4 is the acceptance configuration: four attributes mixing the
// equality and threshold circuits at the paper's 1024-bit key size.
func benchSpec4() *Spec {
	return &Spec{
		Scale: 1,
		Attrs: []AttrSpec{
			{Mode: ModeEquality},
			{Mode: ModeThreshold, T: 16},
			{Mode: ModeEquality},
			{Mode: ModeThreshold, T: 64},
		},
	}
}

func benchRecords4(n int, seed int64) [][]int64 {
	recs := make([][]int64, n)
	for i := range recs {
		v := int64(i) + seed
		recs[i] = []int64{v % 5, v % 17, v % 3, v % 29}
	}
	return recs
}

// BenchmarkSecureBatch measures pipelined batch throughput at a 1024-bit
// key with 4 attributes, serial versus sharded across GOMAXPROCS lanes.
// The acceptance bar for the sharded engine is ≥ 2× the serial
// comparisons/sec at GOMAXPROCS ≥ 4; decryptions/comparison is 1 at this
// geometry (4 × 106-bit slots in a 1024-bit modulus).
func BenchmarkSecureBatch(b *testing.B) {
	alice := benchRecords4(32, 1)
	bob := benchRecords4(32, 2)
	pairs := make([][2]int, 48)
	for k := range pairs {
		pairs[k] = [2]int{(k * 7) % len(alice), (k * 11) % len(bob)}
	}

	run := func(b *testing.B, cmp interface {
		CompareBatch([][2]int) ([]bool, error)
		Invocations() int64
		Decryptions() int64
		Close() error
	}) {
		defer cmp.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cmp.CompareBatch(pairs); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		total := float64(b.N * len(pairs))
		b.ReportMetric(total/b.Elapsed().Seconds(), "comparisons/sec")
		b.ReportMetric(float64(cmp.Decryptions())/float64(cmp.Invocations()), "decryptions/comparison")
	}

	spec := benchSpec4()
	b.Run("serial", func(b *testing.B) {
		cmp, err := NewLocalSecure(spec, alice, bob, 1024)
		if err != nil {
			b.Fatal(err)
		}
		run(b, cmp)
	})
	b.Run(fmt.Sprintf("sharded-%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		cmp, err := NewLocalSecureSharded(spec, alice, bob, 1024, 0)
		if err != nil {
			b.Fatal(err)
		}
		run(b, cmp)
	})
}

// BenchmarkSecureRun is the fan-out curve: throughput of the default
// deployment geometry (5 attributes, packed results, 1024-bit key) when
// every Alice record meets len of Bob's in a row. len=1 is the per-pair
// protocol; at 16 and beyond a run reaches the protocol's cap (half the
// default window), the share sets per pair bottom out at 1/16 and — at a
// slot width with room for more than one pair per ciphertext — so do the
// ciphertexts per pair; len=8 is the cut of a 16-frame window.
// B/pair is every byte on the three links, share sets included. bits=30
// is the width of a spec built without a schema (9 slots: one pair per
// ciphertext), bits=7 what BoundBySchema derives for Adult's default
// quasi-identifiers (17 slots: three pairs).
func BenchmarkSecureRun(b *testing.B) {
	records := func(n int, seed int64) [][]int64 {
		recs := make([][]int64, n)
		for i := range recs {
			v := int64(i) + seed
			recs[i] = []int64{v % 5, v % 17, v % 3, v % 29, v % 7}
		}
		return recs
	}
	alice, bob := records(64, 1), records(32, 2)
	for _, valueBits := range []int{DefaultValueBits, 7} {
		spec := &Spec{Scale: 1, ValueBits: valueBits, Attrs: []AttrSpec{
			{Mode: ModeEquality}, {Mode: ModeThreshold, T: 16}, {Mode: ModeEquality},
			{Mode: ModeThreshold, T: 64}, {Mode: ModeEquality},
		}}
		for _, length := range []int{1, 8, 16, 32} {
			b.Run(fmt.Sprintf("bits=%d/len=%d", valueBits, length), func(b *testing.B) {
				pairs := make([][2]int, 64)
				for k := range pairs {
					pairs[k] = [2]int{k / length, k % len(bob)}
				}
				cmp, shares := startLanes(b, spec, alice, bob, 1, 64, 1024)
				keyBytes := cmp.BytesTransferred()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := cmp.CompareBatch(pairs); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				total := float64(b.N * len(pairs))
				b.ReportMetric(total/b.Elapsed().Seconds(), "pairs/s")
				b.ReportMetric(float64(shares.Load())/total, "share-sets/pair")
				b.ReportMetric(float64(cmp.BytesTransferred()-keyBytes)/total, "B/pair")
				// One decryption per ciphertext received.
				b.ReportMetric(float64(cmp.Decryptions())/total, "ciphertexts/pair")
				b.ReportMetric(float64(cmp.Decryptions())/float64(cmp.Invocations()), "decryptions/comparison")
			})
		}
	}
}

// BenchmarkEncodeRecords encodes one holder's paper-scale relation — 20,108
// Adult records, the five default QIDs — as core.Link does before the first
// purchase, and reports the cost per row.
func BenchmarkEncodeRecords(b *testing.B) {
	d := adult.Generate(20108, 7)
	qids, err := d.Schema().Resolve(adult.DefaultQIDs())
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		EncodeRecords(d, qids, 1)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	rows := float64(b.N) * float64(d.Len())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/rows, "B/row")
}
