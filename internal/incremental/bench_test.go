package incremental_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"pprl/internal/adult"
	"pprl/internal/dataset"
	"pprl/internal/incremental"
	"pprl/internal/journal"
	"pprl/internal/resolve"
)

// oneBinAges is an Adult schema, a maker of n copies of one record at a
// given age with entity ids 0…n-1, and two ages nine years apart that the
// live binner puts in one bin: a pair across them is Unknown, bought, and
// never a match, so the delta log stays out of a measurement.
func oneBinAges(t *testing.T) (*dataset.Schema, func(n int, age float64) []dataset.Record, [2]float64) {
	t.Helper()
	one := adult.Generate(1, 91)
	schema, base := one.Schema(), one.Records()[0]
	ageIdx, _ := schema.Index(adult.AttrAge)
	repeat := func(n int, age float64) []dataset.Record {
		recs := make([]dataset.Record, n)
		for x := range recs {
			recs[x] = dataset.Record{EntityID: x, Cells: append([]dataset.Cell(nil), base.Cells...)}
			recs[x].Cells[ageIdx] = dataset.NumCell(age)
		}
		return recs
	}
	for lo := 17.0; lo <= 80; lo++ {
		eng, err := incremental.New(schema, incremental.Config{QIDs: adult.DefaultQIDs()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Append(0, append(repeat(1, lo), repeat(1, lo+9)...)); err != nil {
			t.Fatal(err)
		}
		if eng.Stats().Bins[0] == 1 {
			return schema, repeat, [2]float64{lo, lo + 9}
		}
	}
	t.Fatal("no age bin spans nine years; the fixture needs another attribute")
	return nil, nil, [2]float64{}
}

// raceDetector is set when the tests run under the race detector.
var raceDetector bool

// TestResidentBatchAllocs: a batch whose records all land in resident bins
// allocates nothing a record at a time — the side's records, ids,
// encodings and bin members grow amortized — and no bin sequence, touched
// set or group list of its own: the binning buffer, the touched bins and
// the candidate groups are the engine's, reused batch after batch.
// Counted as the rise in allocations per Append from one record to 33,
// which was 1.31 a record while every record's bin sequence was made.
func TestResidentBatchAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are a plain build's")
	}
	schema, repeat, bin := oneBinAges(t)
	eng, err := incremental.New(schema, incremental.Config{QIDs: adult.DefaultQIDs()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Append(1, repeat(4, bin[0])); err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		const runs = 20
		batches := make([][]dataset.Record, runs+2) // AllocsPerRun warms up once
		for x := range batches {
			batches[x] = repeat(n, bin[1])
		}
		if _, err := eng.Append(0, batches[runs+1]); err != nil { // the bin is resident from here on
			t.Fatal(err)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if _, err := eng.Append(0, batches[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	one, many := allocs(1), allocs(33)
	perRecord := (many - one) / 32
	t.Logf("allocations per Append: %.1f for one record, %.1f for 33: %.2f a record", one, many, perRecord)
	if st := eng.Stats(); st.Bins != [2]int{1, 1} || st.Deltas != 0 {
		t.Fatalf("fixture: bins %v and %d deltas, want one bin a side and none", st.Bins, st.Deltas)
	}
	if perRecord > 0.5 {
		t.Errorf("a record in a resident bin costs %.2f allocations, want under half of one: only amortized growth", perRecord)
	}
}

// TestAppendDoesNotMaterializePairs: 64 new records in one bin facing a
// resident bin of 4,096 are 262,144 Unknown pairs. As a [][2]int32 list that
// was 2 MB per append before the engine handed the kernel the bins' own
// member slices; now the append allocates what 64 records cost — their
// cells' encodings, a group, the kernel's chunk buffers — far below it.
func TestAppendDoesNotMaterializePairs(t *testing.T) {
	const resident, fresh = 4096, 64
	schema, repeat, bin := oneBinAges(t)
	eng, err := incremental.New(schema, incremental.Config{QIDs: adult.DefaultQIDs()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Append(1, repeat(resident, bin[0])); err != nil {
		t.Fatal(err)
	}
	warm, batch := repeat(fresh, bin[1]), repeat(fresh, bin[1])
	if _, err := eng.Append(0, warm); err != nil { // grows the side's slices once
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := eng.Append(0, batch); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	st := eng.Stats()
	if st.Purchased != 2*fresh*resident || st.Deltas != 0 {
		t.Fatalf("fixture: %d purchases and %d deltas, want %d and 0", st.Purchased, st.Deltas, 2*fresh*resident)
	}
	const pairList = fresh * resident * 8
	if got := after.TotalAlloc - before.TotalAlloc; got > pairList/8 {
		t.Errorf("appending %d records against a bin of %d allocated %d bytes; the pair list alone was %d", fresh, resident, got, pairList)
	}
}

// BenchmarkEngineAppend is the live engine's cost per purchased pair with
// everything a served dataset has but the HTTP layer: Adult records, both
// sides growing in alternating batches, a real journal at the benchmark's
// SyncEvery 4096 (batch marks, verdicts and commits, whose fsyncs are a
// batch's only ones: a frame's windows are written, not fsynced). It
// also reports a batch's ns per purchased pair over the first and the last
// quarter of the batches: the population is four to eight times larger at
// the end, so their ratio, q4/q1, stays near 1 only while a batch costs
// what it buys, not what the population holds. And it reports each side's
// batches apart, ns per purchased pair and purchased pairs per span: a
// span is one new record against its resident bin on either side, so the
// two sides cost alike.
func BenchmarkEngineAppend(b *testing.B) {
	alice, bob := dataset.SplitOverlap(adult.Generate(6000, 93), rand.New(rand.NewSource(94)))
	const perSide = 20
	var purchased int64
	var allocated uint64
	var quarter [2]struct {
		ns    time.Duration
		pairs int64
	}
	var sides [2]struct {
		ns           time.Duration
		pairs, spans int64
	}
	dir := b.TempDir()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		jw, err := journal.Create(filepath.Join(dir, fmt.Sprintf("ingest-%d.wal", n)), journal.Options{SyncEvery: 4096})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := incremental.New(alice.Schema(), incremental.Config{QIDs: adult.DefaultQIDs(), Theta: 0.05, Journal: jw})
		if err != nil {
			b.Fatal(err)
		}
		growing := 0
		eng.ObserveEvents(func(ev resolve.Event) {
			if ev.Kind == resolve.Purchased {
				sides[growing].spans++
			}
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for x := 0; x < perSide; x++ {
			for side, d := range []*dataset.Dataset{alice, bob} {
				t0, bought := time.Now(), eng.Stats().Purchased
				growing = side
				if _, err := eng.Append(side, d.Records()[x*d.Len()/perSide:(x+1)*d.Len()/perSide]); err != nil {
					b.Fatal(err)
				}
				took, pairs := time.Since(t0), eng.Stats().Purchased-bought
				sides[side].ns += took
				sides[side].pairs += pairs
				if q := x * 4 / perSide; q == 0 || q == 3 {
					quarter[q/3].ns += took
					quarter[q/3].pairs += pairs
				}
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc
		purchased += eng.Stats().Purchased
		if err := jw.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(purchased), "ns/pair")
	b.ReportMetric(float64(allocated)/float64(purchased), "B/pair")
	q1 := float64(quarter[0].ns.Nanoseconds()) / float64(quarter[0].pairs)
	q4 := float64(quarter[1].ns.Nanoseconds()) / float64(quarter[1].pairs)
	b.ReportMetric(q1, "q1-ns/pair")
	b.ReportMetric(q4, "q4-ns/pair")
	b.ReportMetric(q4/q1, "q4/q1")
	for side, name := range []string{"alice", "bob"} {
		s := sides[side]
		b.ReportMetric(float64(s.ns.Nanoseconds())/float64(s.pairs), name+"-ns/pair")
		b.ReportMetric(float64(s.pairs)/float64(s.spans), name+"-pairs/span")
	}
}
