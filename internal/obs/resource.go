package obs

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// This file is the process side of the resource observatory: where the
// registry/sampler pair measures the *simulation* (deterministic, sim
// time), the ResourceSampler measures the *process running it* — heap,
// goroutines, GC pauses, CPU time. Those values are wall-clock derived
// and vary run to run, so they are routed exclusively onto the
// nondeterministic surfaces (the Runner's Collect callback, the live
// /metrics registry, flight records, run manifests) and never into the
// deterministic report stream or CSV sidecars.

// ResourceStats is one measured window of process resource use: deltas
// (allocations, GC cycles, CPU) over the window plus high-watermarks
// (peak heap, peak goroutines) observed inside it. Fields are stable
// JSON so flight records and run manifests can embed it.
type ResourceStats struct {
	// WallNS is the window's elapsed wall-clock time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// CPUNS is the process CPU time (user+system) consumed during the
	// window, in nanoseconds; zero on platforms without rusage.
	CPUNS int64 `json:"cpu_ns"`
	// AllocBytes is the total bytes allocated during the window (from
	// runtime.MemStats.TotalAlloc, so frees do not subtract).
	AllocBytes uint64 `json:"alloc_bytes"`
	// Mallocs counts heap objects allocated during the window.
	Mallocs uint64 `json:"mallocs"`
	// NumGC counts garbage-collection cycles completed in the window.
	NumGC uint32 `json:"num_gc"`
	// GCPauseMaxNS is the longest stop-the-world pause observed in the
	// window, in nanoseconds.
	GCPauseMaxNS int64 `json:"gc_pause_max_ns"`
	// PeakHeapBytes is the highest HeapAlloc sample seen in the window:
	// the bytes of allocated heap objects, live ones and garbage not yet
	// swept alike, so it tracks the GC pacer as much as the program. The
	// heap is process-wide: concurrent experiments in the same process
	// share one allocator, so overlapping windows see each other's mass.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// PeakLiveHeapBytes is the highest live heap sampled in the window:
	// runtime/metrics' /gc/heap/live:bytes, the heap the latest GC cycle
	// marked reachable. It moves only when a cycle ends, so a window
	// without one reads the live heap of the cycle before it.
	PeakLiveHeapBytes uint64 `json:"peak_live_heap_bytes"`
	// PeakGoroutines is the highest goroutine count sampled in the window.
	PeakGoroutines int `json:"peak_goroutines"`
	// EventsProcessed carries the deterministic scheduler event count the
	// window's work executed, when the caller knows it (core.
	// EventsProcessed sums it out of the report series).
	EventsProcessed uint64 `json:"events_processed,omitempty"`
}

// String renders the stats compactly for a resources line.
func (s ResourceStats) String() string {
	out := fmt.Sprintf("wall=%v alloc=%s gc=%d peak-heap=%s peak-live=%s peak-goroutines=%d",
		time.Duration(s.WallNS).Round(time.Millisecond), formatBytes(s.AllocBytes), s.NumGC,
		formatBytes(s.PeakHeapBytes), formatBytes(s.PeakLiveHeapBytes), s.PeakGoroutines)
	if s.GCPauseMaxNS > 0 {
		out += fmt.Sprintf(" gc-pause-max=%v", time.Duration(s.GCPauseMaxNS).Round(time.Microsecond))
	}
	if s.CPUNS > 0 {
		out += fmt.Sprintf(" cpu=%v", time.Duration(s.CPUNS).Round(time.Millisecond))
	}
	if s.EventsProcessed > 0 {
		out += fmt.Sprintf(" events=%d", s.EventsProcessed)
	}
	return out
}

// formatBytes renders a byte count with a binary unit.
func formatBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// ResourceSampler snapshots process resource state — runtime.MemStats,
// goroutine counts, GC pause deltas — on demand or on a wall ticker,
// maintaining any number of concurrent per-run measurement windows. When constructed over a registry it also
// publishes live proc.* gauges and a proc.gc.pause.ns histogram, giving
// /metrics scrapes the same view.
//
// The nil sampler is a no-op, so wiring can be unconditional.
type ResourceSampler struct {
	mu        sync.Mutex
	lastNumGC uint32
	windows   map[*resourceWindow]struct{}
	// live is the runtime/metrics read buffer for liveHeapMetric, reused
	// under mu so a sample does not allocate one.
	live [1]metrics.Sample

	// Live registry handles (nil when no registry was supplied).
	gHeap       *Gauge
	gHeapSys    *Gauge
	gHeapObjs   *Gauge
	gHeapPeak   *Gauge
	gGoroutines *Gauge
	gGCNum      *Gauge
	hGCPause    *Histogram
}

// resourceWindow accumulates the peaks seen while a run window is open.
type resourceWindow struct {
	peakHeap       uint64
	peakLive       uint64
	peakGoroutines int
	gcPauseMax     int64
	begin          time.Time
	beginCPU       int64
	base           runtime.MemStats
}

// NewResourceSampler creates a sampler. reg may be nil (run windows
// still work); when non-nil it receives the live gauges
// proc.heap.alloc.bytes, proc.heap.sys.bytes, proc.heap.objects,
// proc.heap.alloc.max.bytes, proc.goroutines, proc.gc.num, and the
// proc.gc.pause.ns histogram. The first sample is taken immediately so
// deltas have a baseline.
func NewResourceSampler(reg *Registry) *ResourceSampler {
	rs := &ResourceSampler{
		windows:     make(map[*resourceWindow]struct{}),
		gHeap:       reg.Gauge("proc.heap.alloc.bytes"),
		gHeapSys:    reg.Gauge("proc.heap.sys.bytes"),
		gHeapObjs:   reg.Gauge("proc.heap.objects"),
		gHeapPeak:   reg.Gauge("proc.heap.alloc.max.bytes"),
		gGoroutines: reg.Gauge("proc.goroutines"),
		gGCNum:      reg.Gauge("proc.gc.num"),
		hGCPause:    reg.Histogram("proc.gc.pause.ns"),
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rs.live[0].Name = liveHeapMetric
	rs.lastNumGC = ms.NumGC
	rs.sampleLocked(&ms, runtime.NumGoroutine())
	return rs
}

// liveHeapMetric names the runtime/metrics sample of the heap the latest
// GC cycle marked live.
const liveHeapMetric = "/gc/heap/live:bytes"

// liveHeapLocked reads liveHeapMetric; zero if the runtime lacks it.
// Callers hold mu (or are the constructor).
func (rs *ResourceSampler) liveHeapLocked() uint64 {
	metrics.Read(rs.live[:])
	if rs.live[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return rs.live[0].Value.Uint64()
}

// Sample takes one snapshot now: live gauges are refreshed, GC pauses since the previous sample observed into the
// histogram, and every open run window updated. Safe for concurrent use.
func (rs *ResourceSampler) Sample() {
	if rs == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := runtime.NumGoroutine()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.sampleLocked(&ms, n)
}

// sampleLocked folds one MemStats reading, and a live-heap read of its
// own, into gauges and open windows. Callers hold mu (or are the
// constructor).
func (rs *ResourceSampler) sampleLocked(ms *runtime.MemStats, goroutines int) {
	live := rs.liveHeapLocked()
	rs.gHeap.Set(int64(ms.HeapAlloc))
	rs.gHeapSys.Set(int64(ms.HeapSys))
	rs.gHeapObjs.Set(int64(ms.HeapObjects))
	rs.gHeapPeak.SetMax(int64(ms.HeapAlloc))
	rs.gGoroutines.Set(int64(goroutines))
	rs.gGCNum.Set(int64(ms.NumGC))

	// New GC pauses since the previous sample: PauseNs is a ring of the
	// last 256 pauses indexed by (cycle+255)%256; cycles further back
	// than the ring are lost (undercounting, never double-counting).
	var pauseMax int64
	first := rs.lastNumGC
	if ms.NumGC > first+256 {
		first = ms.NumGC - 256
	}
	for c := first; c < ms.NumGC; c++ {
		p := int64(ms.PauseNs[(c+255)%256])
		rs.hGCPause.Observe(p)
		if p > pauseMax {
			pauseMax = p
		}
	}
	rs.lastNumGC = ms.NumGC

	for w := range rs.windows {
		if ms.HeapAlloc > w.peakHeap {
			w.peakHeap = ms.HeapAlloc
		}
		if live > w.peakLive {
			w.peakLive = live
		}
		if goroutines > w.peakGoroutines {
			w.peakGoroutines = goroutines
		}
		if pauseMax > w.gcPauseMax {
			w.gcPauseMax = pauseMax
		}
	}
}

// Start drives Sample from a wall-clock ticker; the returned stop
// function halts it and returns once the ticker goroutine has exited.
// Resource samples are wall-time measurements by nature, so unlike the
// metrics Sampler there is no sim-clock variant.
func (rs *ResourceSampler) Start(interval time.Duration) (stop func()) {
	if rs == nil || interval <= 0 {
		return func() {}
	}
	done, exited := make(chan struct{}), make(chan struct{})
	var once sync.Once
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				rs.Sample()
			case <-done:
				return
			}
		}
	}()
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// StartRun opens a per-run measurement window: the returned function
// closes it and reports the window's ResourceStats. Windows may overlap
// freely (the service measures concurrent runs); each one sees the
// process-wide peaks sampled while it was open. Both ends of the window
// take a full sample, so stats are meaningful even without a ticker.
func (rs *ResourceSampler) StartRun() func() ResourceStats {
	if rs == nil {
		return func() ResourceStats { return ResourceStats{} }
	}
	w := &resourceWindow{begin: time.Now(), beginCPU: processCPUNanos()}
	runtime.ReadMemStats(&w.base)
	n := runtime.NumGoroutine()
	rs.mu.Lock()
	rs.windows[w] = struct{}{}
	rs.sampleLocked(&w.base, n)
	rs.mu.Unlock()
	return func() ResourceStats {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		n := runtime.NumGoroutine()
		rs.mu.Lock()
		rs.sampleLocked(&ms, n)
		delete(rs.windows, w)
		rs.mu.Unlock()
		return ResourceStats{
			WallNS:            time.Since(w.begin).Nanoseconds(),
			CPUNS:             cpuDelta(w.beginCPU),
			AllocBytes:        ms.TotalAlloc - w.base.TotalAlloc,
			Mallocs:           ms.Mallocs - w.base.Mallocs,
			NumGC:             ms.NumGC - w.base.NumGC,
			GCPauseMaxNS:      w.gcPauseMax,
			PeakHeapBytes:     w.peakHeap,
			PeakLiveHeapBytes: w.peakLive,
			PeakGoroutines:    w.peakGoroutines,
		}
	}
}

// cpuDelta returns process CPU nanoseconds consumed since base, zero
// when rusage is unavailable (base and current both read as zero).
func cpuDelta(base int64) int64 {
	now := processCPUNanos()
	if now <= base {
		return 0
	}
	return now - base
}
