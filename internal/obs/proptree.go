package obs

import (
	"slices"
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
// family into the per-(node, object) delays of Figures 10/11, a pure
// function of the trace.

// Trace event kinds for the propagation span families.
const (
	KindDeliverBlock = "deliver.block"
	KindDeliverTx    = "deliver.tx"
	KindRelayBlock   = "relay.block"
	KindRelayTx      = "relay.tx"
)

// PropagationTree folds the relay.* trace events of a run into one
// number per delivery span, that is per (node, object): the largest
// relay Dur recorded under it, the node's receive-to-last-connection
// delay. Feed it from a tracer stream (tracer.AddStream(tree.FeedStream))
// so ring eviction cannot lose relays; it is not itself locked, relying
// on the tracer's emission lock for serialization.
type PropagationTree struct {
	blocks, txs map[uint64]time.Duration // delivery span → last delay
}

// NewPropagationTree creates an empty aggregator.
func NewPropagationTree() *PropagationTree {
	return &PropagationTree{
		blocks: make(map[uint64]time.Duration),
		txs:    make(map[uint64]time.Duration),
	}
}

// Feed consumes one trace event, ignoring kinds outside the relay family.
func (pt *PropagationTree) Feed(ev Event) { pt.FeedStream(&ev) }

// FeedStream is Feed in tracer-stream form (tracer.AddStream(
// tree.FeedStream)): it reads the event in place and keeps no pointer.
func (pt *PropagationTree) FeedStream(ev *Event) {
	m := pt.delays(ev.Kind)
	if m == nil || ev.Parent == 0 {
		return
	}
	if d, ok := m[ev.Parent]; !ok || ev.Dur > d {
		m[ev.Parent] = ev.Dur
	}
}

// RelayDelays returns the per-(node, object) last-connection delays for
// one relay kind (KindRelayBlock or KindRelayTx) in ascending order — the
// input of Figures 10/11. A relay whose delivery predates measurement
// still counts: the delay is keyed by the span identifier alone.
func (pt *PropagationTree) RelayDelays(kind string) []time.Duration {
	m := pt.delays(kind)
	out := make([]time.Duration, 0, len(m))
	for _, d := range m {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}

// delays returns the map holding one relay kind's delays, nil for any
// other kind.
func (pt *PropagationTree) delays(kind string) map[uint64]time.Duration {
	switch kind {
	case KindRelayBlock:
		return pt.blocks
	case KindRelayTx:
		return pt.txs
	}
	return nil
}
