package metrics

import (
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
)

// Histogram is a log-linear (HDR-style) latency histogram over non-negative
// int64 values, nanoseconds by convention. Buckets split each power-of-two
// octave into 2^histSubBits sub-buckets, bounding the relative quantization
// error at 1/2^histSubBits (12.5% with the 3 sub-bits used here) while
// keeping Observe a pure bit-twiddle plus two atomic adds — no locks, no
// allocation, no floating point. A nil *Histogram is the disabled
// instrument: Observe is a one-branch no-op.
//
// Snapshot consistency: Observe increments the value's bucket before the
// sum, and snapshot derives the count from the buckets, so a snapshot taken
// mid-recording always satisfies the Prometheus histogram invariant that
// the +Inf bucket equals the count, and successive snapshots are monotonic
// per bucket.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
	// exemplars holds, per bucket, the trace ID of the most recent
	// observation that landed there via ObserveExemplar — the link from a
	// slow bucket to a concrete trace. Plain Observe never touches it, so
	// exemplar support costs untraced callers nothing.
	exemplars [histBuckets]atomic.Uint64
}

const (
	// histSubBits sub-buckets per octave: 8 → at most 12.5% relative error.
	histSubBits  = 3
	histSubCount = 1 << histSubBits
	// Index layout: values < histSubCount map to themselves; a value with
	// bit length n ≥ histSubBits+1 lands in octave [2^(n-1), 2^n), which is
	// split into histSubCount buckets of width 2^(n-1-histSubBits). Values
	// are clamped non-negative int64s, so n ≤ 63 and the top index is
	// (63-histSubBits)·histSubCount + histSubCount - 1 = histBuckets - 1.
	histBuckets = (64 - histSubBits) * histSubCount
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < histSubCount {
		return int(u)
	}
	n := bits.Len64(u)
	sub := int(u>>uint(n-1-histSubBits)) - histSubCount
	return (n-histSubBits)*histSubCount + sub
}

// bucketUpper returns the largest value mapping to bucket i — the bucket's
// inclusive `le` bound in the exposition formats.
func bucketUpper(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	n := i/histSubCount + histSubBits
	sub := i % histSubCount
	width := uint64(1) << uint(n-1-histSubBits)
	upper := uint64(1)<<uint(n-1) + uint64(sub+1)*width - 1
	if upper > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(upper)
}

// Observe records one value. Negative values clamp to zero. No-op on a nil
// histogram.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the same value at the cost of one.
func (h *Histogram) ObserveN(v, n int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(n)
	h.sum.Add(v * n)
}

// ObserveExemplar is Observe plus an exemplar: the bucket the value lands
// in remembers traceID (last-writer-wins), so the exposition formats can
// point from a latency bucket at a concrete trace. traceID 0 records no
// exemplar. Still lock-free, 0 allocs: at most three atomic operations.
func (h *Histogram) ObserveExemplar(v int64, traceID uint64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	h.buckets[i].Add(1)
	h.sum.Add(v)
	if traceID != 0 {
		h.exemplars[i].Store(traceID)
	}
}

// Count returns the number of observations; 0 on a nil histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of observed values; 0 on a nil histogram.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket is one cumulative histogram bucket of a snapshot: Count
// observations were ≤ Le.
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
	// Exemplar is the hex trace ID of a recent observation in this bucket
	// (non-cumulative: this bucket specifically); empty when none was
	// recorded.
	Exemplar string `json:"exemplar,omitempty"`
}

// snapshot returns the non-empty cumulative buckets, the total count
// (derived from the buckets, so it always matches the last cumulative
// entry) and the sum.
func (h *Histogram) snapshot() (buckets []Bucket, count, sum int64) {
	if h == nil {
		return nil, 0, 0
	}
	sum = h.sum.Load()
	var cum int64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		b := Bucket{Le: bucketUpper(i), Count: cum}
		if ex := h.exemplars[i].Load(); ex != 0 {
			b.Exemplar = strconv.FormatUint(ex, 16)
		}
		buckets = append(buckets, b)
	}
	return buckets, cum, sum
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the recorded
// distribution from the live buckets: the upper bound of the first bucket
// whose cumulative count reaches q·count. Returns 0 on a nil or empty
// histogram.
func (h *Histogram) Quantile(q float64) int64 {
	buckets, count, _ := h.snapshot()
	return BucketQuantile(buckets, count, q)
}

// BucketQuantile is Quantile over an already-taken snapshot.
func BucketQuantile(buckets []Bucket, count int64, q float64) int64 {
	if count == 0 || len(buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	for _, b := range buckets {
		if b.Count >= rank {
			return b.Le
		}
	}
	return buckets[len(buckets)-1].Le
}
