package obs

import (
	"net/netip"
	"testing"
	"time"
)

// feedChain emits a three-node propagation A → B → C of one object into
// the tree: deliveries at each node with SpanKey-derived identifiers,
// plus per-connection relay events under each delivery span.
func feedChain(pt *PropagationTree, hash []byte, t0 time.Time) (a, b, c netip.AddrPort) {
	a, b, c = addrPort(1), addrPort(2), addrPort(3)
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
	return a, b, c
}

func TestPropagationTreeMultiHop(t *testing.T) {
	pt := NewPropagationTree()
	t0 := time.Unix(1585958400, 0).UTC()
	hash := []byte{0xab, 0xcd}
	a, b, _ := feedChain(pt, hash, t0)

	stats := pt.RelayStats(KindRelayBlock)
	if len(stats) != 2 {
		t.Fatalf("relay stats = %d, want 2 (A and B)", len(stats))
	}
	// Sorted by last delay: B (50ms, fanout 1) before A (300ms, fanout 2).
	if stats[0].Node != b || stats[0].LastDelay != 50*time.Millisecond || stats[0].Fanout != 1 {
		t.Errorf("stats[0] = %+v", stats[0])
	}
	if stats[1].Node != a || stats[1].LastDelay != 300*time.Millisecond || stats[1].Fanout != 2 {
		t.Errorf("stats[1] = %+v", stats[1])
	}
	if got := pt.RelayStats(KindRelayTx); len(got) != 0 {
		t.Errorf("tx relay stats leaked from block kind: %+v", got)
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
	if got := pt.RelayStats(KindRelayTx); len(got) != 0 {
		t.Errorf("relay stats = %+v, want none", got)
	}
}

// TestPropagationTreeFromTracerStream pins the intended wiring: the tree
// fed as a tracer stream sees every event even when the ring evicts.
func TestPropagationTreeFromTracerStream(t *testing.T) {
	tr := NewTracer(2, virtualClock()) // tiny ring: everything evicts
	pt := NewPropagationTree()
	tr.AddStream(pt.FeedStream)
	hash := []byte{9}
	for i := 0; i < 20; i++ {
		n := addrPort(byte(i + 1))
		tr.Emit(Event{Kind: KindRelayBlock, From: n, Parent: SpanKey(n, hash)})
	}
	if got := len(pt.RelayStats(KindRelayBlock)); got != 20 {
		t.Fatalf("stream saw %d relaying nodes, want 20 (eviction must not lose relays)", got)
	}
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
