package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestTracerDroppedConcurrentWrap checks the overload accounting stays
// exact while the ring wraps under concurrent publishers: every emitted
// event is either retained or counted as dropped, never both, never
// lost. This is the counter the reprod service's overload dashboards
// trust, so it must not drift under contention.
func TestTracerDroppedConcurrentWrap(t *testing.T) {
	const (
		capacity   = 64
		publishers = 8
		perPub     = 5000
	)
	tr := NewTracer(capacity, func() time.Time { return time.Unix(0, 0) })

	var wg sync.WaitGroup
	wg.Add(publishers)
	for p := 0; p < publishers; p++ {
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				tr.Emit(Event{Kind: "load", Detail: fmt.Sprintf("p%d-%d", p, i)})
			}
		}(p)
	}
	wg.Wait()

	const total = publishers * perPub
	if got := tr.Total(); got != total {
		t.Errorf("Total = %d, want %d", got, total)
	}
	if got := tr.Dropped(); got != total-capacity {
		t.Errorf("Dropped = %d, want %d (total %d - capacity %d)",
			got, total-capacity, total, capacity)
	}
	if got := len(tr.Events()); got != capacity {
		t.Errorf("retained %d events, want %d", got, capacity)
	}

	// The published gauges must mirror the counters exactly.
	reg := NewRegistry()
	tr.Publish(reg)
	if got := reg.Gauge("obs.trace.total").Value(); got != total {
		t.Errorf("obs.trace.total = %d, want %d", got, total)
	}
	if got := reg.Gauge("obs.trace.dropped").Value(); got != total-capacity {
		t.Errorf("obs.trace.dropped = %d, want %d", got, total-capacity)
	}
}

// TestTracerDroppedSingleWrapBoundary pins the wrap boundary: a ring of
// capacity C with exactly C events drops nothing; the C+1st event drops
// exactly one.
func TestTracerDroppedSingleWrapBoundary(t *testing.T) {
	const capacity = 8
	tr := NewTracer(capacity, func() time.Time { return time.Unix(0, 0) })
	for i := 0; i < capacity; i++ {
		tr.Emit(Event{Kind: "k"})
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d before wrap, want 0", got)
	}
	tr.Emit(Event{Kind: "k"})
	if got := tr.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d after first wrap, want 1", got)
	}
	if got := tr.Total(); got != capacity+1 {
		t.Fatalf("Total = %d, want %d", got, capacity+1)
	}
}

// TestTracerDroppedIsTotalMinusRetained pins the accounting identity at
// every capacity, none included: an event is either retained or dropped.
func TestTracerDroppedIsTotalMinusRetained(t *testing.T) {
	for _, capacity := range []int{0, 4, 100} {
		tr := NewTracer(capacity, virtualClock())
		for i := 0; i < 10; i++ {
			tr.Emit(Event{Kind: "k"})
			if got, want := tr.Dropped(), tr.Total()-uint64(len(tr.Events())); got != want {
				t.Fatalf("capacity %d after %d events: Dropped = %d, want Total − len(Events) = %d",
					capacity, i+1, got, want)
			}
		}
	}
}

// TestTracerNoRingEmitDoesNotAllocate: a tracer with no ring hands its
// streams the tracer's own slot, so Emit copies the event once and
// allocates nothing.
func TestTracerNoRingEmitDoesNotAllocate(t *testing.T) {
	tr := NewTracer(0, virtualClock())
	var n int
	tr.AddStream(func(ev *Event) { n += len(ev.Kind) })
	ev := Event{Kind: KindRelayBlock, From: addrPort(1), To: addrPort(2), Parent: 7, Dur: time.Second}
	if allocs := testing.AllocsPerRun(1000, func() { tr.Emit(ev) }); allocs != 0 {
		t.Errorf("Emit allocates %.1f times per event, want 0", allocs)
	}
	if len(tr.Events()) != 0 {
		t.Error("a tracer with no ring retained events")
	}
}
