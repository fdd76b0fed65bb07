package node

import "time"

// EventType enumerates instrumentation events.
type EventType int

// Instrumentation event types: each is one a runner reads off
// Config.Sink. Everything else the node does is recorded once, as a
// Config.Metrics counter (node.dial.fail, node.evict.*,
// node.backoff.armed) or a Config.Tracer event (dial, handshake,
// deliver.*, relay.*).
const (
	// EvDialAttempt fires for every outbound connection attempt — the
	// Figure 7 denominator (analysis.RunPropagation, feelers excluded by
	// Dir).
	EvDialAttempt EventType = iota + 1
	// EvDialSuccess fires when a dial completes — the Figure 7 numerator.
	EvDialSuccess
	// EvConnClose fires when a connection closes. No runner reads it; it
	// is the one observable of the order in which simnet's Host.Stop
	// closes its connections, which a simnet test pins.
	EvConnClose
	// EvHandshake fires when VERSION/VERACK completes
	// (analysis.RunResync's first outbound connection).
	EvHandshake
	// EvSyncDone fires when initial block download completes
	// (analysis.RunResync's time to synced).
	EvSyncDone
)

// Event is one instrumentation record. Dir and Conn are set for the
// connection events and zero for EvSyncDone.
type Event struct {
	// Type discriminates the record.
	Type EventType
	// Time is the (virtual) time of the event.
	Time time.Time
	// Dir is the connection direction.
	Dir Direction
	// Conn is the connection; zero for EvDialAttempt, which has none yet.
	Conn ConnID
}

// emit delivers an instrumentation event to the configured sink.
func (n *Node) emit(ev Event) {
	if n.cfg.Sink != nil {
		n.cfg.Sink(ev)
	}
}
