package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// histBuckets is 27 finite buckets, 1 µs to 2^26 µs ≈ 67 s, and overflow.
const histBuckets = 28

// Histogram is a latency distribution over fixed log₂-spaced buckets:
// Buckets[0] counts durations up to 1 µs, Buckets[k] those in
// (2^(k-1), 2^k] µs, the last everything above 2^26 µs; Ns is their total
// in nanoseconds, and both are its JSON form. Observe is lock-free and
// never allocates, Merge is exact, the zero value is empty. The fields are
// plain words updated with sync/atomic functions, not atomic types, so
// that a settled histogram copies and encodes as a value inside a run's
// record; read one that is still being fed only through a Merge.
type Histogram struct {
	Buckets [histBuckets]uint64 `json:"buckets"`
	Ns      int64               `json:"ns"`
}

// bucketBound is bucket k's upper bound, or the overflow's lower one.
func bucketBound(k int) time.Duration { return time.Microsecond << min(k, histBuckets-2) }

// Observe adds one duration.
func (h *Histogram) Observe(d time.Duration) {
	k := 0
	if d > time.Microsecond {
		k = min(bits.Len64(uint64(d-1)/uint64(time.Microsecond)), histBuckets-1)
	}
	atomic.AddUint64(&h.Buckets[k], 1)
	atomic.AddInt64(&h.Ns, int64(d))
}

// Merge adds o's durations to h, reading o atomically.
func (h *Histogram) Merge(o *Histogram) {
	for k := range h.Buckets {
		h.Buckets[k] += atomic.LoadUint64(&o.Buckets[k])
	}
	h.Ns += atomic.LoadInt64(&o.Ns)
}

// Count is how many durations h holds.
func (h *Histogram) Count() (n int64) {
	for _, c := range h.Buckets {
		n += int64(c)
	}
	return n
}

// Sum is the total of h's durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.Ns) }

// Quantile is the upper bound of the bucket holding the q-quantile, so it
// never understates (67 s means at least that); 0 when h is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	rank := max(uint64(math.Ceil(q*float64(h.Count()))), 1)
	var seen uint64
	for k, c := range h.Buckets {
		if seen += c; seen >= rank {
			return bucketBound(k)
		}
	}
	return 0
}

// String is the CLIs' summary, "p50=… p95=… calls=…".
func (h *Histogram) String() string {
	return fmt.Sprintf("p50=%v p95=%v calls=%d", h.Quantile(0.5), h.Quantile(0.95), h.Count())
}

// Histogram writes h's series under labels: cumulative _bucket{le} counts
// in seconds, +Inf last, then _sum in seconds and _count.
func (e *Exposition) Histogram(name, labels string, h *Histogram) {
	var cum uint64
	for k, c := range h.Buckets {
		le := "+Inf"
		if k < histBuckets-1 {
			le = strconv.FormatFloat(bucketBound(k).Seconds(), 'g', -1, 64)
		}
		cum += c
		e.Sample(name+"_bucket", strings.TrimPrefix(labels+","+Label("le", le), ","), float64(cum))
	}
	e.Sample(name+"_sum", labels, h.Sum().Seconds())
	e.Sample(name+"_count", labels, float64(cum))
}
