package obs

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// ballast defeats the optimizer so allocations inside tests are real.
var ballast [][]byte

func allocSome(n int) {
	for i := 0; i < n; i++ {
		ballast = append(ballast, make([]byte, 64<<10))
	}
	ballast = ballast[:0]
}

func TestResourceSamplerLiveGauges(t *testing.T) {
	reg := NewRegistry()
	rs := NewResourceSampler(reg)
	rs.Sample()
	snap := reg.Snapshot()
	want := map[string]bool{
		"proc.heap.alloc.bytes":     false,
		"proc.heap.sys.bytes":       false,
		"proc.heap.objects":         false,
		"proc.heap.alloc.max.bytes": false,
		"proc.goroutines":           false,
		"proc.gc.num":               false,
	}
	for _, g := range snap.Gauges {
		if _, ok := want[g.Name]; ok {
			want[g.Name] = true
			if g.Value <= 0 && g.Name != "proc.gc.num" {
				t.Errorf("gauge %s not populated: %d", g.Name, g.Value)
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("missing live gauge %s", name)
		}
	}
}

func TestResourceSamplerRunWindow(t *testing.T) {
	rs := NewResourceSampler(nil)
	stop := rs.StartRun()
	allocSome(16)
	rs.Sample()
	st := stop()
	if st.AllocBytes == 0 {
		t.Fatal("run window recorded no allocations")
	}
	if st.PeakHeapBytes == 0 || st.PeakGoroutines == 0 {
		t.Fatalf("run window peaks not populated: %+v", st)
	}
	if st.WallNS <= 0 {
		t.Fatalf("run window wall time not positive: %d", st.WallNS)
	}
}

func TestResourceSamplerOverlappingWindows(t *testing.T) {
	rs := NewResourceSampler(nil)
	stopA := rs.StartRun()
	stopB := rs.StartRun()
	allocSome(8)
	rs.Sample()
	a, b := stopA(), stopB()
	// The heap is process-wide, so both windows saw the same samples.
	if a.PeakHeapBytes == 0 || b.PeakHeapBytes == 0 {
		t.Fatalf("overlapping windows missed peaks: a=%+v b=%+v", a, b)
	}
}

// TestResourceSamplerPeakLive checks a window that retains a 64 MiB slice
// across a GC cycle reports a peak live heap of at least the slice.
func TestResourceSamplerPeakLive(t *testing.T) {
	const size = 64 << 20
	rs := NewResourceSampler(nil)
	stop := rs.StartRun()
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i)
	}
	runtime.GC()
	rs.Sample()
	runtime.KeepAlive(buf)
	st := stop()
	if st.PeakLiveHeapBytes < size {
		t.Errorf("PeakLiveHeapBytes = %d, want at least the %d-byte slice", st.PeakLiveHeapBytes, size)
	}
	if !strings.Contains(st.String(), "peak-live=") {
		t.Errorf("String() = %q, missing peak-live=", st.String())
	}
}

func TestResourceSamplerNilSafe(t *testing.T) {
	var rs *ResourceSampler
	rs.Sample()
	stop := rs.Start(time.Millisecond)
	stop()
	end := rs.StartRun()
	if st := end(); st != (ResourceStats{}) {
		t.Fatalf("nil sampler returned non-zero stats: %+v", st)
	}
}

func TestResourceSamplerTicker(t *testing.T) {
	reg := NewRegistry()
	rs := NewResourceSampler(reg)
	gcs := reg.Gauge("proc.gc.num")
	before := gcs.Value()
	stop := rs.Start(time.Millisecond)
	runtime.GC()
	deadline := time.Now().Add(2 * time.Second)
	for gcs.Value() == before {
		if time.Now().After(deadline) {
			t.Fatal("ticker never sampled")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
}

func TestResourceStatsString(t *testing.T) {
	s := ResourceStats{
		WallNS:          int64(1500 * time.Millisecond),
		PeakHeapBytes:   2 << 20,
		PeakGoroutines:  7,
		AllocBytes:      1 << 20,
		NumGC:           3,
		GCPauseMaxNS:    1500,
		CPUNS:           int64(20 * time.Millisecond),
		EventsProcessed: 42,
	}
	out := s.String()
	if want := "wall=1.5s alloc=1.0MiB gc=3 peak-heap=2.0MiB"; !strings.HasPrefix(out, want) {
		t.Errorf("String() = %q, want prefix %q", out, want)
	}
	for _, want := range []string{"peak-goroutines=7", "events=42", "cpu="} {
		if !strings.Contains(out, want) {
			t.Errorf("String() = %q, missing %q", out, want)
		}
	}
	// Optional fields stay out when zero.
	brief := ResourceStats{PeakHeapBytes: 1}.String()
	for _, absent := range []string{"cpu=", "events=", "gc-pause-max="} {
		if strings.Contains(brief, absent) {
			t.Errorf("String() = %q, should omit %q", brief, absent)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	for _, c := range []struct {
		b    uint64
		want string
	}{{512, "512B"}, {4 << 10, "4.0KiB"}, {3 << 20, "3.0MiB"}, {2 << 30, "2.0GiB"}} {
		if got := formatBytes(c.b); got != c.want {
			t.Errorf("formatBytes(%d) = %q, want %q", c.b, got, c.want)
		}
	}
}

func TestCPUDeltaNeverNegative(t *testing.T) {
	if d := cpuDelta(1 << 62); d != 0 {
		t.Fatalf("cpuDelta with future base = %d, want 0", d)
	}
}
