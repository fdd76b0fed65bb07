package obs

import (
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(10, 20, 30, 40, 50)
	for v := int64(1); v <= 100; v++ {
		h.Observe(v % 50)
	}
	if got := h.Stat("").Count; got != 100 {
		t.Fatalf("count = %d", got)
	}
	// Values 0..49 twice: p50 falls in the bucket bounded by 30
	// (cumulative through 30 covers ranks 1..62).
	if got := h.Quantile(0.5); got != 30 {
		t.Errorf("p50 = %d, want 30", got)
	}
	if got := h.Quantile(0.99); got != 50 {
		t.Errorf("p99 = %d, want 50", got)
	}
	st := h.Stat("lat")
	if st.Min != 0 || st.Max != 49 {
		t.Errorf("min/max = %d/%d, want 0/49", st.Min, st.Max)
	}
	if st.Sum == 0 || st.P50 != 30 {
		t.Errorf("stat = %+v", st)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram(10)
	h.Observe(5)
	h.Observe(1000)
	h.Observe(2000)
	// Two of three samples exceed every bound; the top quantile reports
	// the observed maximum.
	if got := h.Quantile(1.0); got != 2000 {
		t.Errorf("p100 = %d, want 2000", got)
	}
	if got := h.Quantile(0.25); got != 10 {
		t.Errorf("p25 = %d, want 10", got)
	}
}

func TestHistogramEmptyStat(t *testing.T) {
	h := NewHistogram()
	st := h.Stat("empty")
	if st.Count != 0 || st.Min != 0 || st.Max != 0 || st.P50 != 0 {
		t.Errorf("empty stat = %+v", st)
	}
	if h.Quantile(0.5) != 0 {
		t.Error("empty quantile not 0")
	}
}

func TestHistogramDefaultBucketsCoverSimLatencies(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(45 * time.Millisecond) // link latency
	h.ObserveDuration(5 * time.Second)       // dial timeout
	h.ObserveDuration(17 * time.Second)      // paper's max relay delay
	st := h.Stat("d")
	if st.Count != 3 {
		t.Fatalf("count = %d", st.Count)
	}
	// The median sample is 5 s; the estimate reports its power-of-two
	// bucket bound, so it must land within [5s, 8.192s].
	if st.P50 < int64(5*time.Second) || st.P50 > int64(8192*time.Millisecond) {
		t.Errorf("p50 = %v", time.Duration(st.P50))
	}
	// Nothing falls in the overflow bucket: max bound covers 17 s.
	if st.Max != int64(17*time.Second) {
		t.Errorf("max = %v", time.Duration(st.Max))
	}
}
