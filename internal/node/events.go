package node

import (
	"net/netip"
	"time"

	"repro/internal/chainhash"
)

// EventType enumerates instrumentation events.
type EventType int

// Instrumentation event types. Analyses subscribe to these to produce the
// paper's figures. Object receipt and relay are not among them: the
// tracer's deliver.* and relay.* events (obs.Tracer) are their one record.
const (
	// EvStarted fires when the node starts.
	EvStarted EventType = iota + 1
	// EvDialAttempt fires for every outbound connection attempt — the
	// Figure 7 denominator.
	EvDialAttempt
	// EvDialSuccess fires when a dial completes — the Figure 7 numerator.
	EvDialSuccess
	// EvDialFail fires when a dial fails.
	EvDialFail
	// EvConnClose fires when a connection closes.
	EvConnClose
	// EvHandshake fires when VERSION/VERACK completes.
	EvHandshake
	// EvSyncDone fires when initial block download completes.
	EvSyncDone
	// EvPeerStalled fires when a peer is evicted because its keepalive
	// PING went unanswered past the stall timeout.
	EvPeerStalled
	// EvBlockStalled fires when a peer is evicted for sitting on a
	// requested block past the block-stall timeout; Hash carries the
	// stalled block.
	EvBlockStalled
	// EvHandshakeTimeout fires when a peer is evicted for failing to
	// complete VERSION/VERACK in time.
	EvHandshakeTimeout
	// EvDialBackoff fires when a failed dial arms (or extends) the
	// per-address reconnect backoff; Delay carries the backoff duration
	// and Count the consecutive-failure count.
	EvDialBackoff
)

// String returns the event type name.
func (t EventType) String() string {
	switch t {
	case EvStarted:
		return "started"
	case EvDialAttempt:
		return "dial-attempt"
	case EvDialSuccess:
		return "dial-success"
	case EvDialFail:
		return "dial-fail"
	case EvConnClose:
		return "conn-close"
	case EvHandshake:
		return "handshake"
	case EvSyncDone:
		return "sync-done"
	case EvPeerStalled:
		return "peer-stalled"
	case EvBlockStalled:
		return "block-stalled"
	case EvHandshakeTimeout:
		return "handshake-timeout"
	case EvDialBackoff:
		return "dial-backoff"
	default:
		return "unknown"
	}
}

// Event is one instrumentation record. Fields beyond Type, Time, and Node
// are populated per type.
type Event struct {
	// Type discriminates the record.
	Type EventType
	// Time is the (virtual) time of the event.
	Time time.Time
	// Node is the reporting node's address.
	Node netip.AddrPort
	// Peer is the remote address, when applicable.
	Peer netip.AddrPort
	// Conn is the connection, when applicable.
	Conn ConnID
	// Dir is the connection direction, when applicable.
	Dir Direction
	// Hash identifies the stalled block for EvBlockStalled.
	Hash chainhash.Hash
	// Delay carries the backoff duration for EvDialBackoff.
	Delay time.Duration
	// Count carries the consecutive-failure count for EvDialBackoff.
	Count int
	// Err carries the failure for EvDialFail.
	Err error
}
