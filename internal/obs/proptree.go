package obs

import (
	"net/netip"
	"sort"
	"time"
)

// Nodes emit two trace-event families per relayed object (block or
// transaction):
//
//   - deliver.block / deliver.tx — the object was accepted at a node.
//     Span is the node's delivery span (SpanKey(node, hash)), Parent the
//     sender's delivery span (zero at the origin), From the sender, To
//     the accepting node.
//   - relay.block / relay.tx — an announcement of the object left a node
//     for one peer. Parent is the local delivery span, Dur the paper's
//     receive-to-relay delay for that connection.
//
// Because the identifiers are SpanKey-derived, parent/child edges line up
// across hops without any state shared between nodes. The deliver family
// is for readers of the NDJSON trace; PropagationTree folds the relay
// family into the per-node delays of Figures 10/11, a pure function of
// the trace.

// Trace event kinds for the propagation span families.
const (
	KindDeliverBlock = "deliver.block"
	KindDeliverTx    = "deliver.tx"
	KindRelayBlock   = "relay.block"
	KindRelayTx      = "relay.tx"
)

// RelayStat aggregates one node's relay activity for one object — the
// unit behind the paper's Figures 10/11.
type RelayStat struct {
	// Node is the relaying endpoint.
	Node netip.AddrPort
	// Span is the node's delivery span for the object.
	Span uint64
	// LastDelay is the receive-to-last-connection delay: the maximum
	// per-connection relay delay the node recorded for the object.
	LastDelay time.Duration
	// Fanout is the number of connections relayed to.
	Fanout int
}

// PropagationTree aggregates the relay.* trace events of a run under the
// delivery span they belong to. Feed it from a tracer stream
// (tracer.AddStream(tree.FeedStream)) so ring eviction cannot lose
// relays; it is not itself locked, relying on the tracer's emission lock
// for serialization. RelayStats is deterministically ordered.
type PropagationTree struct {
	relays map[uint64]*relayAgg // delivery span → relay aggregate
}

// relayAgg accumulates relay events under one delivery span.
type relayAgg struct {
	node   netip.AddrPort
	kind   string
	last   time.Duration
	fanout int
}

// NewPropagationTree creates an empty aggregator.
func NewPropagationTree() *PropagationTree {
	return &PropagationTree{relays: make(map[uint64]*relayAgg)}
}

// Feed consumes one trace event, ignoring kinds outside the relay family.
func (pt *PropagationTree) Feed(ev Event) { pt.FeedStream(&ev) }

// FeedStream is Feed in tracer-stream form (tracer.AddStream(
// tree.FeedStream)): it reads the event in place and keeps no pointer.
func (pt *PropagationTree) FeedStream(ev *Event) {
	if (ev.Kind != KindRelayBlock && ev.Kind != KindRelayTx) || ev.Parent == 0 {
		return
	}
	agg := pt.relays[ev.Parent]
	if agg == nil {
		agg = &relayAgg{node: ev.From, kind: ev.Kind}
		pt.relays[ev.Parent] = agg
	}
	if ev.Dur > agg.last {
		agg.last = ev.Dur
	}
	agg.fanout++
}

// RelayStats returns the per-(node, object) relay aggregates for one
// relay kind (KindRelayBlock or KindRelayTx), sorted by last delay, then
// node, then fanout, then span — the deterministic order the figure
// pipelines consume. A relay whose delivery predates measurement still appears:
// the aggregate is keyed by the span identifier alone.
func (pt *PropagationTree) RelayStats(kind string) []RelayStat {
	out := make([]RelayStat, 0, len(pt.relays))
	for span, agg := range pt.relays {
		if agg.kind != kind {
			continue
		}
		out = append(out, RelayStat{
			Node: agg.node, Span: span, LastDelay: agg.last, Fanout: agg.fanout,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LastDelay != out[j].LastDelay {
			return out[i].LastDelay < out[j].LastDelay
		}
		if c := compareAddrPort(out[i].Node, out[j].Node); c != 0 {
			return c < 0
		}
		if out[i].Fanout != out[j].Fanout {
			return out[i].Fanout < out[j].Fanout
		}
		return out[i].Span < out[j].Span
	})
	return out
}

// compareAddrPort orders endpoints by address then port.
func compareAddrPort(a, b netip.AddrPort) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	switch {
	case a.Port() < b.Port():
		return -1
	case a.Port() > b.Port():
		return 1
	}
	return 0
}
