package obs

import (
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"
)

func addrPort(b byte) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, b}), 8333)
}

// virtualClock is a deterministic test clock advancing 1 ms per call.
func virtualClock() func() time.Time {
	t := time.Unix(1585958400, 0).UTC()
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestTracerRecordsAndStamps(t *testing.T) {
	tr := NewTracer(8, virtualClock())
	tr.Emit(Event{Kind: "drop", From: addrPort(1), To: addrPort(2), Detail: "ping"})
	tr.Emit(Event{Kind: "spike", Time: time.Unix(99, 0).UTC(), Dur: time.Millisecond})
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Time.IsZero() {
		t.Error("Emit did not stamp the clock time")
	}
	if !evs[1].Time.Equal(time.Unix(99, 0).UTC()) {
		t.Error("Emit overwrote an explicit time")
	}
	if s := evs[0].String(); !strings.Contains(s, "drop") || !strings.Contains(s, "ping") {
		t.Errorf("event rendering: %q", s)
	}
	if s := evs[1].String(); !strings.Contains(s, "dur=") {
		t.Errorf("timed event rendering lacks duration: %q", s)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(4, virtualClock())
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: "e", Detail: fmt.Sprint(i)})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := fmt.Sprint(6 + i); ev.Detail != want {
			t.Errorf("ring[%d] = %s, want %s (oldest-first order)", i, ev.Detail, want)
		}
	}
	if tr.Total() != 10 || tr.Dropped() != 6 {
		t.Errorf("total/dropped = %d/%d, want 10/6", tr.Total(), tr.Dropped())
	}
}

func TestTracerDigestDeterministicAndEvictionFree(t *testing.T) {
	run := func(capacity int) string {
		tr := NewTracer(capacity, virtualClock())
		for i := 0; i < 50; i++ {
			tr.Emit(Event{Kind: "k", From: addrPort(byte(i)), Detail: fmt.Sprint(i)})
		}
		return tr.Digest()
	}
	if run(100) != run(100) {
		t.Error("same sequence produced different digests")
	}
	// Digest covers evicted events too: capacity must not matter.
	if run(100) != run(4) {
		t.Error("ring capacity changed the digest")
	}
	// Order matters.
	a := NewTracer(10, virtualClock())
	b := NewTracer(10, virtualClock())
	a.Emit(Event{Kind: "x"})
	a.Emit(Event{Kind: "y"})
	b.Emit(Event{Kind: "y"})
	b.Emit(Event{Kind: "x"})
	if a.Digest() == b.Digest() {
		t.Error("digest ignored event order")
	}
}

// TestTracerDigestGolden pins the word fold's value over a fixed relay
// trace, so any change to what the digest folds, or how, shows up as a
// change of this constant and nowhere else.
func TestTracerDigestGolden(t *testing.T) {
	const golden = "d79926afc78bd3b2"
	_, evs := labelEvents()
	tr := NewTracer(8, nil)
	for _, ev := range evs {
		tr.Emit(ev)
	}
	if got := tr.Digest(); got != golden {
		t.Errorf("digest %s, want %s", got, golden)
	}
}

// TestTracerDigestSeesEveryField: changing any one field of an event, or
// the order of two events, changes the digest.
func TestTracerDigestSeesEveryField(t *testing.T) {
	h := [8]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}
	base := Event{
		Time: time.Unix(1585958400, 0).UTC(), Kind: KindRelayBlock,
		From: addrPort(1), To: addrPort(2), Obj: ObjectPrefix(h),
		Detail: "x", Dur: time.Second, Span: 7, Parent: 9,
	}
	digest := func(evs ...Event) string {
		tr := NewTracer(4, nil)
		for _, ev := range evs {
			tr.Emit(ev)
		}
		return tr.Digest()
	}
	want := digest(base)
	for _, tc := range []struct {
		field  string
		change func(*Event)
	}{
		{"Time", func(e *Event) { e.Time = e.Time.Add(time.Nanosecond) }},
		{"Kind", func(e *Event) { e.Kind = KindRelayTx }},
		{"From address", func(e *Event) { e.From = netip.AddrPortFrom(addrPort(3).Addr(), e.From.Port()) }},
		{"From port", func(e *Event) { e.From = netip.AddrPortFrom(e.From.Addr(), e.From.Port()+1) }},
		{"To", func(e *Event) { e.To = addrPort(3) }},
		{"Obj unset", func(e *Event) { e.Obj = ObjectID{} }},
		{"Detail", func(e *Event) { e.Detail = "y" }},
		{"Dur", func(e *Event) { e.Dur++ }},
		{"Span", func(e *Event) { e.Span++ }},
		{"Parent", func(e *Event) { e.Parent++ }},
	} {
		ev := base
		tc.change(&ev)
		if digest(ev) == want {
			t.Errorf("changing %s left the digest at %s", tc.field, want)
		}
	}
	other := base
	other.Kind, other.Span = KindDeliverBlock, 11
	if digest(base, other) == digest(other, base) {
		t.Error("swapping two events left the digest unchanged")
	}
}

func TestTracerEventsCopy(t *testing.T) {
	tr := NewTracer(4, virtualClock())
	tr.Emit(Event{Kind: "a"})
	evs := tr.Events()
	evs[0].Kind = "mutated"
	if got := tr.Events()[0].Kind; got != "a" {
		t.Errorf("Events returned aliased storage: %q", got)
	}
	if !reflect.DeepEqual(tr.Events(), tr.Events()) {
		t.Error("repeated Events calls differ")
	}
}
