package anonymize

import (
	"runtime"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/dataset"
)

// paperShape is one holder's relation at the paper's shape: 20,108 Adult
// records and the five default QIDs.
func paperShape(tb testing.TB) (*dataset.Dataset, []int) {
	d := adult.Generate(20108, 7)
	qids, err := d.Schema().Resolve(adult.DefaultQIDs())
	if err != nil {
		tb.Fatal(err)
	}
	return d, qids
}

// BenchmarkTopDown is the paper's anonymizer at the paper's shape, k = 32.
func BenchmarkTopDown(b *testing.B) {
	d, qids := paperShape(b)
	a := NewMaxEntropy()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := a.Anonymize(d, qids, 32); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
}

// TestTopDownAllocBound caps what one MaxEntropy Anonymize allocates at
// BenchmarkTopDown's shape at the figure of the engine before path codes
// (2,708,148 B/op, DESIGN.md §22): the per-call columns must be paid for.
func TestTopDownAllocBound(t *testing.T) {
	const limit = 2_708_148
	d, qids := paperShape(t)
	a := NewMaxEntropy()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := a.Anonymize(d, qids, 32); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("one Anonymize allocated %d bytes, more than %d", got, limit)
	} else {
		t.Logf("one Anonymize allocated %d bytes (limit %d)", got, limit)
	}
}
