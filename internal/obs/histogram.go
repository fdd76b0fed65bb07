package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// DurationBuckets are the default histogram bounds, in nanoseconds:
// exponential from 1 ms to ~17 min, sized for the latencies this
// simulator produces (link delays, relay queue delays, dial timeouts,
// block downloads). Values above the last bound land in the overflow
// bucket and are reported via Max.
var DurationBuckets = func() []int64 {
	var bounds []int64
	for d := time.Millisecond; d <= 1024*time.Second; d *= 2 {
		bounds = append(bounds, int64(d))
	}
	return bounds
}()

// Histogram is a fixed-bucket streaming histogram over int64 samples
// (by convention nanoseconds for latencies). Updates are lock-free
// atomics; quantiles are deterministic upper-bound estimates, so two
// runs observing the same sample sequence report identical stats. The
// nil histogram discards observations.
type Histogram struct {
	bounds []int64        // sorted upper bounds, len >= 1
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // valid when count > 0
	max    atomic.Int64
}

// NewHistogram creates a histogram with the given sorted upper bounds
// (DurationBuckets when none are given).
func NewHistogram(bounds ...int64) *Histogram {
	if len(bounds) == 0 {
		bounds = DurationBuckets
	}
	h := &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveDuration records a duration sample in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of
// the bucket holding the q-th sample — deterministic, and exact to one
// bucket width. Samples past the last bound are estimated by the
// observed maximum. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max.Load()
		}
	}
	return h.max.Load()
}

// Stat summarizes the histogram under the given name.
func (h *Histogram) Stat(name string) HistogramStat {
	st := HistogramStat{Name: name}
	if h == nil {
		return st
	}
	st.Count = h.count.Load()
	if st.Count == 0 {
		return st
	}
	st.Sum = h.sum.Load()
	st.Min = h.min.Load()
	st.Max = h.max.Load()
	st.P50 = h.Quantile(0.50)
	st.P90 = h.Quantile(0.90)
	st.P99 = h.Quantile(0.99)
	return st
}
