package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dials")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("dials") != c {
		t.Error("get-or-create returned a different handle")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	g.SetMax(3)
	if got := g.Value(); got != 5 {
		t.Errorf("SetMax lowered the gauge to %d", got)
	}
	g.SetMax(11)
	if got := g.Value(); got != 11 {
		t.Errorf("SetMax = %d, want 11", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil counter retained a value")
	}
	g := r.Gauge("y")
	g.Set(9)
	g.SetMax(10)
	if g.Value() != 0 {
		t.Error("nil gauge retained a value")
	}
	h := r.Histogram("z")
	h.Observe(5)
	if h.Quantile(0.5) != 0 {
		t.Error("nil histogram retained samples")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	var tr *Tracer
	tr.Emit(Event{Kind: "x"})
	if tr.Total() != 0 || tr.Digest() != "" || tr.Events() != nil {
		t.Error("nil tracer retained events")
	}
}

func TestSnapshotCounterLookup(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Counter("c").Add(3)
	r.Gauge("g").Set(9)
	snap := r.Snapshot()
	for name, want := range map[string]int64{"a": 1, "b": 2, "c": 3, "g": 0, "missing": 0} {
		if got := snap.Counter(name); got != want {
			t.Errorf("Counter(%q) = %d, want %d", name, got, want)
		}
	}
}

func TestSnapshotSortedAndStable(t *testing.T) {
	r := NewRegistry()
	// Register out of order; the snapshot must come back sorted without
	// sorting at snapshot time.
	for _, name := range []string{"zeta", "alpha", "mid", "beta"} {
		r.Counter(name).Inc()
	}
	r.Gauge("g2").Set(2)
	r.Gauge("g1").Set(1)
	r.Histogram("h2").Observe(10)
	r.Histogram("h1").Observe(20)
	snap := r.Snapshot()
	wantCounters := []string{"alpha", "beta", "mid", "zeta"}
	for i, nv := range snap.Counters {
		if nv.Name != wantCounters[i] {
			t.Fatalf("counter order %v, want %v", snap.Counters, wantCounters)
		}
	}
	if snap.Gauges[0].Name != "g1" || snap.Gauges[1].Name != "g2" {
		t.Errorf("gauge order: %v", snap.Gauges)
	}
	if snap.Histograms[0].Name != "h1" || snap.Histograms[1].Name != "h2" {
		t.Errorf("histogram order: %+v", snap.Histograms)
	}
	if snap.Counters[2].Value != 1 || snap.Gauges[1].Value != 2 || snap.Histograms[0].Count != 1 {
		t.Errorf("snapshot values wrong:\n%s", snap)
	}
	// Two snapshots of an unchanged registry render identically.
	if a, b := r.Snapshot().String(), r.Snapshot().String(); a != b {
		t.Errorf("unstable rendering:\n%s\nvs\n%s", a, b)
	}
}

// TestConcurrentAddSnapshot is the -race coverage replacing the removed
// stats.Counters type requires: many goroutines adding while others snapshot
// and create new metrics. Correctness: no race, and the final snapshot
// sees every update.
func TestConcurrentAddSnapshot(t *testing.T) {
	r := NewRegistry()
	const (
		goroutines = 8
		perG       = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("shared").Inc()
				r.Counter(fmt.Sprintf("own.%d", g)).Inc()
				r.Gauge("depth").Set(int64(i))
				r.Histogram("lat").Observe(int64(i))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	// Concurrent snapshot reader.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			snap := r.Snapshot()
			_ = snap.String()
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter("shared").Value(); got != goroutines*perG {
		t.Errorf("shared counter = %d, want %d", got, goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		if got := r.Counter(fmt.Sprintf("own.%d", g)).Value(); got != perG {
			t.Errorf("own.%d = %d, want %d", g, got, perG)
		}
	}
	snap := r.Snapshot()
	if h := snap.Histograms[0]; h.Name != "lat" || h.Count != goroutines*perG {
		t.Errorf("histogram %s count = %d, want lat with %d", h.Name, h.Count, goroutines*perG)
	}
}
