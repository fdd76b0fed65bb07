package obs

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"
)

// feedChain emits a three-node propagation A → B → C of one object into
// the tree: deliveries at each node with SpanKey-derived identifiers,
// plus per-connection relay events under each delivery span.
func feedChain(pt *PropagationTree, hash []byte, t0 time.Time) {
	a, b, c := addrPort(1), addrPort(2), addrPort(3)
	// Origin: A mines/holds the object (no parent).
	pt.Feed(Event{Time: t0, Kind: KindDeliverBlock, From: a, To: a,
		Detail: "obj1", Span: SpanKey(a, hash)})
	// A relays to B and C, 100ms and 300ms after receipt.
	pt.Feed(Event{Time: t0.Add(100 * time.Millisecond), Kind: KindRelayBlock,
		From: a, To: b, Detail: "obj1", Dur: 100 * time.Millisecond, Parent: SpanKey(a, hash)})
	pt.Feed(Event{Time: t0.Add(300 * time.Millisecond), Kind: KindRelayBlock,
		From: a, To: c, Detail: "obj1", Dur: 300 * time.Millisecond, Parent: SpanKey(a, hash)})
	// B accepts 150ms after the origin, then relays once.
	pt.Feed(Event{Time: t0.Add(150 * time.Millisecond), Kind: KindDeliverBlock,
		From: a, To: b, Detail: "obj1", Span: SpanKey(b, hash), Parent: SpanKey(a, hash)})
	pt.Feed(Event{Time: t0.Add(200 * time.Millisecond), Kind: KindRelayBlock,
		From: b, To: c, Detail: "obj1", Dur: 50 * time.Millisecond, Parent: SpanKey(b, hash)})
	// C accepts last, 400ms after the origin.
	pt.Feed(Event{Time: t0.Add(400 * time.Millisecond), Kind: KindDeliverBlock,
		From: a, To: c, Detail: "obj1", Span: SpanKey(c, hash), Parent: SpanKey(a, hash)})
}

func TestPropagationTreeMultiHop(t *testing.T) {
	pt := NewPropagationTree()
	t0 := time.Unix(1585958400, 0).UTC()
	feedChain(pt, []byte{0xab, 0xcd}, t0)

	// One delay per relaying node, ascending: B's only relay (50ms)
	// before A's last of two (300ms).
	want := []time.Duration{50 * time.Millisecond, 300 * time.Millisecond}
	if got := pt.RelayDelays(KindRelayBlock); !slices.Equal(got, want) {
		t.Errorf("block relay delays = %v, want %v", got, want)
	}
	if got := pt.RelayDelays(KindRelayTx); len(got) != 0 {
		t.Errorf("tx relay delays leaked from block kind: %v", got)
	}
}

func TestPropagationTreeDuplicatesAndPointEvents(t *testing.T) {
	pt := NewPropagationTree()
	t0 := time.Unix(0, 0).UTC()
	hash := []byte{1}
	a := addrPort(1)
	// Deliveries (a re-announced one included), non-propagation kinds and
	// relays without a delivery span aggregate to nothing.
	pt.Feed(Event{Time: t0, Kind: KindDeliverTx, To: a, Span: SpanKey(a, hash)})
	pt.Feed(Event{Time: t0.Add(time.Hour), Kind: KindDeliverTx, To: addrPort(9), Span: SpanKey(a, hash)})
	pt.Feed(Event{Time: t0, Kind: "drop", Span: 77, Parent: 78})
	pt.Feed(Event{Time: t0, Kind: KindRelayTx, From: a}) // Parent 0
	if got := pt.RelayDelays(KindRelayTx); len(got) != 0 {
		t.Errorf("relay delays = %v, want none", got)
	}
}

// TestPropagationTreeFromTracerStream pins the intended wiring: the tree
// fed as a tracer stream sees every event, whether the ring evicts it or
// there is no ring.
func TestPropagationTreeFromTracerStream(t *testing.T) {
	for _, capacity := range []int{0, 2} {
		tr := NewTracer(capacity, virtualClock())
		pt := NewPropagationTree()
		tr.AddStream(pt.FeedStream)
		hash := []byte{9}
		for i := 0; i < 20; i++ {
			n := addrPort(byte(i + 1))
			tr.Emit(Event{Kind: KindRelayBlock, From: n, Parent: SpanKey(n, hash)})
		}
		if got := len(pt.RelayDelays(KindRelayBlock)); got != 20 {
			t.Fatalf("capacity %d: stream saw %d relaying nodes, want 20", capacity, got)
		}
	}
}

// FuzzPropagationTree checks RelayDelays against a naive oracle: every
// relay Dur listed under its (kind, Parent), the maximum of each list,
// sorted. The input decodes as 4-byte events (kind, parent, signed
// 16-bit duration in ms) fed through a tracer stream with no ring; eight
// parent values, zero among them, make spans repeat.
func FuzzPropagationTree(f *testing.F) {
	f.Add([]byte{0, 1, 0, 10, 0, 1, 0, 30, 1, 1, 0, 20, 2, 1, 0, 5, 0, 0, 0, 7})
	f.Add([]byte{1, 3, 0xff, 0xf0, 1, 3, 0, 0, 4, 3, 1, 0, 5, 2, 0, 9, 3, 4, 0, 1})
	kinds := []string{KindRelayBlock, KindRelayTx, KindDeliverBlock, KindDeliverTx, "drop", "dial"}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewTracer(0, virtualClock())
		pt := NewPropagationTree()
		tr.AddStream(pt.FeedStream)
		naive := map[string]map[uint64][]time.Duration{}
		for ; len(data) >= 4; data = data[4:] {
			ev := Event{
				Kind:   kinds[int(data[0])%len(kinds)],
				Parent: uint64(data[1] % 8),
				Dur:    time.Duration(int16(binary.BigEndian.Uint16(data[2:4]))) * time.Millisecond,
			}
			ev.Span = ev.Parent + 100 // a deliver's own span; relays ignore it
			tr.Emit(ev)
			if ev.Parent == 0 {
				continue
			}
			if naive[ev.Kind] == nil {
				naive[ev.Kind] = map[uint64][]time.Duration{}
			}
			naive[ev.Kind][ev.Parent] = append(naive[ev.Kind][ev.Parent], ev.Dur)
		}
		for _, kind := range kinds {
			var want []time.Duration
			if kind == KindRelayBlock || kind == KindRelayTx {
				for _, durs := range naive[kind] {
					want = append(want, slices.Max(durs))
				}
				slices.Sort(want)
			}
			if got := pt.RelayDelays(kind); !slices.Equal(got, want) {
				t.Fatalf("RelayDelays(%s) = %v, want %v", kind, got, want)
			}
		}
	})
}

func TestSpanKeyProperties(t *testing.T) {
	a, b := addrPort(1), addrPort(2)
	k1, k2 := []byte{1, 2, 3}, []byte{1, 2, 4}
	if SpanKey(a, k1) == 0 || SpanKey(a, nil) == 0 {
		t.Error("SpanKey produced the zero sentinel")
	}
	if SpanKey(a, k1) != SpanKey(a, k1) {
		t.Error("SpanKey is not a pure function")
	}
	if SpanKey(a, k1) == SpanKey(b, k1) {
		t.Error("different endpoints collided")
	}
	if SpanKey(a, k1) == SpanKey(a, k2) {
		t.Error("different keys collided")
	}
}
