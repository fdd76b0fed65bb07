package obs

import (
	"testing"
)

func TestTracerStreamsSeeEveryEvent(t *testing.T) {
	tr := NewTracer(2, virtualClock())
	var seen []Event
	tr.AddStream(func(ev *Event) { seen = append(seen, *ev) })
	tr.AddStream(nil) // ignored
	var nilTr *Tracer
	nilTr.AddStream(func(*Event) {}) // no-op

	for i := 0; i < 7; i++ {
		tr.Emit(Event{Kind: "k"})
	}
	if len(seen) != 7 {
		t.Fatalf("stream saw %d events, want 7 (pre-eviction delivery)", len(seen))
	}
	if seen[0].Time.IsZero() {
		t.Error("stream received unstamped event times")
	}
	if tr.Dropped() != 5 {
		t.Errorf("dropped = %d, want 5", tr.Dropped())
	}
}

func TestTracerPublish(t *testing.T) {
	tr := NewTracer(2, virtualClock())
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Kind: "k"})
	}
	reg := NewRegistry()
	tr.Publish(reg)
	snap := reg.Snapshot()
	got := map[string]int64{}
	for _, g := range snap.Gauges {
		got[g.Name] = g.Value
	}
	if got["obs.trace.total"] != 5 || got["obs.trace.dropped"] != 3 {
		t.Errorf("published gauges = %v, want total 5 dropped 3", got)
	}
	// Nil receiver and nil registry are no-ops.
	var nilTr *Tracer
	nilTr.Publish(reg)
	tr.Publish(nil)
}
