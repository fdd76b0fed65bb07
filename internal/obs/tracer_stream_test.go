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

func TestSpanChildHierarchy(t *testing.T) {
	tr := NewTracer(8, virtualClock())
	root := tr.Span("download", addrPort(1), addrPort(2))
	child := root.Child("chunk", addrPort(1), addrPort(2))
	child.End("done")
	root.End("ok")
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Parent != root.ID() {
		t.Errorf("child parent = %d, want root %d", evs[0].Parent, root.ID())
	}
	if evs[1].Span != root.ID() || evs[1].Parent != 0 {
		t.Errorf("root event = %+v", evs[1])
	}
	var nilSpan *Span
	if nilSpan.Child("x", addrPort(1), addrPort(2)) != nil {
		t.Error("nil span child is not nil")
	}
	if nilSpan.ID() != 0 {
		t.Error("nil span has nonzero ID")
	}
	nilSpan.End("noop")
}
