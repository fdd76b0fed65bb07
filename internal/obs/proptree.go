package obs

import (
	"net/netip"
	"sort"
	"time"
)

// This file reconstructs object propagation from the flat trace-event
// stream. Nodes emit two event families per relayed object (block or
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
// across hops without any state shared between nodes, and the tree is a
// pure function of the trace — the replacement for the per-experiment
// relay bookkeeping that used to live in internal/analysis.

// Trace event kinds for the propagation span families.
const (
	KindDeliverBlock = "deliver.block"
	KindDeliverTx    = "deliver.tx"
	KindRelayBlock   = "relay.block"
	KindRelayTx      = "relay.tx"
)

// Delivery is one node's receipt of one object.
type Delivery struct {
	// Node is the accepting endpoint.
	Node netip.AddrPort
	// From is the endpoint the object arrived from (the node itself at
	// the origin).
	From netip.AddrPort
	// Time is the acceptance (first-seen) time.
	Time time.Time
	// Span and Parent are the delivery span identifiers.
	Span, Parent uint64
	// Object labels the delivered object (hash prefix). It is rendered
	// by Deliveries; while the tree is being fed only obj is kept.
	Object string
	obj    ObjectID
	// HopLatency is the delivery-to-delivery latency from the parent
	// node (zero at the origin or when the parent's delivery was not
	// observed).
	HopLatency time.Duration
}

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

// ObjectStat summarizes one object's spread through the network.
type ObjectStat struct {
	// Object labels the object (hash prefix from the trace detail).
	Object string
	// Origin is the first node that held the object.
	Origin netip.AddrPort
	// FirstSeen is the origin delivery time.
	FirstSeen time.Time
	// Nodes is how many nodes the object reached.
	Nodes int
	// TimeToLastNode is the origin-to-final-delivery latency — the
	// network-wide propagation span.
	TimeToLastNode time.Duration
	// MaxHopLatency is the slowest observed single hop.
	MaxHopLatency time.Duration
}

// PropagationTree reconstructs per-object propagation trees from
// deliver.*/relay.* trace events. Feed it from a tracer stream
// (tracer.AddStream(tree.FeedStream)) so ring eviction cannot lose hops; it
// is not itself locked, relying on the tracer's emission lock for
// serialization. All derived views are deterministically ordered.
type PropagationTree struct {
	deliveries map[uint64]*Delivery // delivery span → first delivery
	relays     map[uint64]*relayAgg // delivery span → relay aggregate
}

// relayAgg accumulates relay events under one delivery span.
type relayAgg struct {
	node   netip.AddrPort
	kind   string
	last   time.Duration
	fanout int
}

// NewPropagationTree creates an empty reconstructor.
func NewPropagationTree() *PropagationTree {
	return &PropagationTree{
		deliveries: make(map[uint64]*Delivery),
		relays:     make(map[uint64]*relayAgg),
	}
}

// Feed consumes one trace event, ignoring kinds outside the propagation
// families.
func (pt *PropagationTree) Feed(ev Event) { pt.FeedStream(&ev) }

// FeedStream is Feed in tracer-stream form (tracer.AddStream(
// tree.FeedStream)): it reads the event in place and keeps no pointer.
func (pt *PropagationTree) FeedStream(ev *Event) {
	switch ev.Kind {
	case KindDeliverBlock, KindDeliverTx:
		if ev.Span == 0 {
			return
		}
		if _, ok := pt.deliveries[ev.Span]; ok {
			return // duplicate delivery (re-announcement); keep the first
		}
		pt.deliveries[ev.Span] = &Delivery{
			Node:   ev.To,
			From:   ev.From,
			Time:   ev.Time,
			Span:   ev.Span,
			Parent: ev.Parent,
			Object: ev.Detail,
			obj:    ev.Obj,
		}
	case KindRelayBlock, KindRelayTx:
		if ev.Parent == 0 {
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
}

// RelayStats returns the per-(node, object) relay aggregates for one
// relay kind (KindRelayBlock or KindRelayTx), sorted by last delay, then
// node, then fanout — the deterministic order the figure pipelines
// consume. A relay whose delivery predates measurement still appears:
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
		return out[i].Fanout < out[j].Fanout
	})
	return out
}

// Deliveries returns every observed delivery with hop latencies
// resolved against parent deliveries, sorted by time, then node.
func (pt *PropagationTree) Deliveries() []Delivery {
	out := make([]Delivery, 0, len(pt.deliveries))
	for _, d := range pt.deliveries {
		dd := *d
		dd.Object = d.obj.String() + d.Object
		if parent, ok := pt.deliveries[d.Parent]; ok && d.Parent != 0 {
			dd.HopLatency = d.Time.Sub(parent.Time)
		}
		out = append(out, dd)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Time.Equal(out[j].Time) {
			return out[i].Time.Before(out[j].Time)
		}
		return compareAddrPort(out[i].Node, out[j].Node) < 0
	})
	return out
}

// Objects summarizes propagation per object: origin, reach, and
// time-to-last-node, sorted by first-seen time then object label.
func (pt *PropagationTree) Objects() []ObjectStat {
	byObject := make(map[string]*ObjectStat)
	for _, d := range pt.Deliveries() { // time-sorted: first hit is the origin
		st := byObject[d.Object]
		if st == nil {
			st = &ObjectStat{
				Object:    d.Object,
				Origin:    d.Node,
				FirstSeen: d.Time,
			}
			byObject[d.Object] = st
		}
		st.Nodes++
		if ttl := d.Time.Sub(st.FirstSeen); ttl > st.TimeToLastNode {
			st.TimeToLastNode = ttl
		}
		if d.HopLatency > st.MaxHopLatency {
			st.MaxHopLatency = d.HopLatency
		}
	}
	out := make([]ObjectStat, 0, len(byObject))
	for _, st := range byObject {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].FirstSeen.Equal(out[j].FirstSeen) {
			return out[i].FirstSeen.Before(out[j].FirstSeen)
		}
		return out[i].Object < out[j].Object
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
