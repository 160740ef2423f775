package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBounds: a duration lands in the first bucket whose
// upper bound (1 µs · 2^k) holds it, a bound itself included, and
// everything past 2^26 µs in the overflow.
func TestHistogramBucketBounds(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want int
	}{
		{0, 0}, {time.Microsecond, 0}, {time.Microsecond + 1, 1}, {2 * time.Microsecond, 1},
		{2*time.Microsecond + 1, 2}, {time.Millisecond, 10}, {1024 * time.Microsecond, 10},
		{time.Second, 20}, {time.Microsecond << 26, 26}, {time.Microsecond<<26 + 1, 27}, {time.Hour, 27},
	} {
		var h Histogram
		h.Observe(c.d)
		if h.Buckets[c.want] != 1 {
			t.Errorf("%v landed in %v, want bucket %d", c.d, h.Buckets, c.want)
		}
		if c.want < histBuckets-1 && (c.d > bucketBound(c.want) || c.want > 0 && c.d <= bucketBound(c.want-1)) {
			t.Errorf("%v is outside bucket %d's bounds", c.d, c.want)
		}
		if h.Sum() != c.d || h.Count() != 1 {
			t.Errorf("%v: sum %v count %d", c.d, h.Sum(), h.Count())
		}
	}
}

// fill returns a histogram of the durations.
func fill(ds ...time.Duration) *Histogram {
	h := new(Histogram)
	for _, d := range ds {
		h.Observe(d)
	}
	return h
}

// TestHistogramMergeAssociative: merging is exact, so the order and the
// grouping of merges do not matter, and a merge equals observing
// everything into one histogram.
func TestHistogramMergeAssociative(t *testing.T) {
	a := fill(3*time.Microsecond, time.Millisecond)
	b := fill(time.Second, 5*time.Nanosecond, 2*time.Minute)
	c := fill(40 * time.Millisecond)
	var left, bc, right Histogram
	left.Merge(a)
	left.Merge(b)
	left.Merge(c)
	bc.Merge(b)
	bc.Merge(c)
	right.Merge(a)
	right.Merge(&bc)
	all := fill(3*time.Microsecond, time.Millisecond, time.Second, 5*time.Nanosecond, 2*time.Minute, 40*time.Millisecond)
	if left != right || left != *all {
		t.Errorf("(a+b)+c = %+v, a+(b+c) = %+v, one histogram %+v", left, right, *all)
	}
}

// TestHistogramQuantilesMonotone: a higher quantile never reads lower,
// each reads its bucket's upper bound, and an empty histogram reads 0.
func TestHistogramQuantilesMonotone(t *testing.T) {
	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Errorf("empty p50 = %v", empty.Quantile(0.5))
	}
	h := fill(time.Microsecond, 3*time.Millisecond, 3*time.Millisecond, time.Second, time.Hour)
	prev := time.Duration(0)
	for q := 0.0; q <= 1; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile %.2f = %v below the one before, %v", q, v, prev)
		}
		prev = v
	}
	if p50 := h.Quantile(0.5); p50 != 4096*time.Microsecond {
		t.Errorf("p50 = %v, want 4.096ms, the bound of 3 ms's bucket", p50)
	}
	if p0, p100 := h.Quantile(0), h.Quantile(1); p0 != time.Microsecond || p100 != time.Microsecond<<26 {
		t.Errorf("p0 = %v, p100 = %v: want 1µs and the overflow's lower bound", p0, p100)
	}
	if got := h.String(); got != "p50=4.096ms p95=1m7.108864s calls=5" {
		t.Errorf("String() = %q", got)
	}
}

// TestHistogramConcurrentObserve: concurrent Observe is clean under -race
// and loses nothing, and a Merge may read a histogram still being fed.
func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range 1000 {
				h.Observe(time.Duration(i*1000+j) * time.Microsecond)
			}
		}()
	}
	for range 10 {
		var snap Histogram
		snap.Merge(&h)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	var want time.Duration
	for n := range 8000 {
		want += time.Duration(n) * time.Microsecond
	}
	if h.Sum() != want {
		t.Errorf("sum = %v, want %v", h.Sum(), want)
	}
}

// TestHistogramJSON: the wire form is the bucket counts and the total in
// ns, and it reads back exactly.
func TestHistogramJSON(t *testing.T) {
	h := fill(time.Microsecond, 3*time.Microsecond, 3*time.Microsecond)
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"buckets":[1,0,2` + strings.Repeat(",0", histBuckets-3) + `],"ns":7000}`; string(data) != want {
		t.Errorf("wire form = %s, want %s", data, want)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil || back != *h {
		t.Errorf("round trip: %+v (%v), want %+v", back, err, *h)
	}
}

// TestHistogramPrometheus: the buckets are cumulative, in seconds, after
// the family's labels; +Inf equals _count, and _sum is in seconds.
func TestHistogramPrometheus(t *testing.T) {
	h := fill(time.Microsecond, 3*time.Millisecond, time.Hour)
	var b strings.Builder
	e := &Exposition{W: &b}
	e.Family("pprl_worker_chunk_seconds", "histogram", "Round trips.")
	e.Histogram("pprl_worker_chunk_seconds", Label("worker", `w"1`), h)
	if e.Err() != nil {
		t.Fatal(e.Err())
	}
	out := b.String()
	for _, want := range []string{
		"# HELP pprl_worker_chunk_seconds Round trips.\n# TYPE pprl_worker_chunk_seconds histogram\n",
		`pprl_worker_chunk_seconds_bucket{worker="w\"1",le="1e-06"} 1` + "\n",
		`pprl_worker_chunk_seconds_bucket{worker="w\"1",le="0.002048"} 1` + "\n",
		`pprl_worker_chunk_seconds_bucket{worker="w\"1",le="0.004096"} 2` + "\n",
		`pprl_worker_chunk_seconds_bucket{worker="w\"1",le="67.108864"} 2` + "\n",
		`pprl_worker_chunk_seconds_bucket{worker="w\"1",le="+Inf"} 3` + "\n",
		`pprl_worker_chunk_seconds_sum{worker="w\"1"} 3600.003001` + "\n",
		`pprl_worker_chunk_seconds_count{worker="w\"1"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "_bucket{"); n != histBuckets {
		t.Errorf("%d bucket lines, want %d", n, histBuckets)
	}
	var unlabeled strings.Builder
	(&Exposition{W: &unlabeled}).Histogram("x", "", h)
	if !strings.Contains(unlabeled.String(), "x_bucket{le=\"+Inf\"} 3\nx_sum 3600.003001\nx_count 3\n") {
		t.Errorf("unlabeled histogram:\n%s", unlabeled.String())
	}
}
