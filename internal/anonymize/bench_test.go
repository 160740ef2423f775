package anonymize

import (
	"testing"

	"pprl/internal/adult"
)

// BenchmarkTopDown is the paper's anonymizer at the paper's shape: one
// holder's 20,108 Adult records, the five default QIDs, k = 32.
func BenchmarkTopDown(b *testing.B) {
	d := adult.Generate(20108, 7)
	qids, err := d.Schema().Resolve(adult.DefaultQIDs())
	if err != nil {
		b.Fatal(err)
	}
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
