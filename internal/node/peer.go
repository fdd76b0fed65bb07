package node

import (
	"encoding/binary"
	"net/netip"
	"time"

	"repro/internal/chainhash"
	"repro/internal/wire"
)

// msgClass labels queued outbound messages for the relay-policy
// scheduler.
type msgClass int

const (
	// classControl covers handshake and keepalive traffic.
	classControl msgClass = iota + 1
	// classAddr covers ADDR/GETADDR gossip.
	classAddr
	// classTx covers transaction announcements and bodies.
	classTx
	// classBlock covers block announcements and bodies — the class the
	// §V refinement prioritizes.
	classBlock
)

// outMsg is one entry of a peer's vSendMsg queue.
type outMsg struct {
	msg      wire.Message
	class    msgClass
	enqueued time.Time
	// relayMark carries the object hash for relay-delay instrumentation
	// (zero when not a tracked relay).
	relayMark chainhash.Hash
	// recvAt is when the relayed object was originally received, for
	// relay-delay events.
	recvAt time.Time
}

// Peer is the node-side state of one connection, mirroring Bitcoin Core's
// CNode: the vProcessMsg receive queue, the vSendMsg send queue, and the
// relay bookkeeping.
type Peer struct {
	id        ConnID
	addr      netip.AddrPort
	dir       Direction
	connected time.Time

	// Handshake state.
	versionReceived bool
	verackReceived  bool
	handshook       bool
	startHeight     int32
	userAgent       string

	// recvQ is the vProcessMsg equivalent: inbound messages awaiting the
	// message-handler loop. recvHead indexes the next message (popping
	// advances the head instead of shifting, keeping pops O(1)).
	recvQ    []wire.Message
	recvHead int
	// sendQ is the vSendMsg equivalent: outbound messages awaiting the
	// socket-handler loop, with the same head-index scheme.
	sendQ    []outMsg
	sendHead int

	// knownInv tracks the objects this peer is known to have, to avoid
	// redundant announcements. It is keyed on the first 64 bits of the
	// hash (see invKey): the set is probed for every peer on every
	// announcement, and an 8-byte key hashes and compares in one word.
	knownInv map[uint64]struct{}

	// wantsCmpct reports whether the peer negotiated BIP-152 relay.
	wantsCmpct bool

	// getAddrSent ensures a single GETADDR per outbound connection.
	getAddrSent bool
	// addrResponded limits GETADDR responses (Bitcoin Core answers once).
	addrResponded bool

	// lastRecv is when the last message arrived, driving the keepalive
	// idle check (Bitcoin Core's nLastRecv).
	lastRecv time.Time
	// pingNonce and pingSent track the outstanding keepalive PING: a
	// matching PONG clears them, and an unanswered PING older than the
	// stall timeout evicts the peer. pingNonce is zero when no PING is
	// outstanding.
	pingNonce uint64
	pingSent  time.Time
}

// Addr returns the peer's remote address.
func (p *Peer) Addr() netip.AddrPort { return p.addr }

// Dir returns the connection direction.
func (p *Peer) Dir() Direction { return p.dir }

// Handshook reports whether the VERSION/VERACK exchange completed.
func (p *Peer) Handshook() bool { return p.handshook }

// invKey is an object's knownInv key: the first 8 bytes of its hash. Two
// distinct objects share a key with probability 2^-64, so a probe of a
// full set (8192 entries) is a false positive with probability below
// 5e-16 — against the 1e-6 of the rolling Bloom filter Bitcoin Core uses
// for the same job (filterInventoryKnown). A false positive costs what it
// costs there: one announcement to one peer is skipped.
func invKey(h chainhash.Hash) uint64 { return binary.LittleEndian.Uint64(h[:8]) }

// markKnown records that the peer has (or was sent) the object.
// The map is bounded: once it grows past maxKnownInv it is reset, which
// only costs an occasional duplicate announcement.
func (p *Peer) markKnown(h chainhash.Hash) {
	const maxKnownInv = 8192
	if len(p.knownInv) >= maxKnownInv {
		p.knownInv = make(map[uint64]struct{}, maxKnownInv/4)
	}
	p.knownInv[invKey(h)] = struct{}{}
}

// knows reports whether the peer is known to have the object.
func (p *Peer) knows(h chainhash.Hash) bool {
	_, ok := p.knownInv[invKey(h)]
	return ok
}

// queueLen returns the depth of the peer's send queue.
func (p *Peer) queueLen() int { return len(p.sendQ) - p.sendHead }

// recvLen returns the depth of the peer's receive queue.
func (p *Peer) recvLen() int { return len(p.recvQ) - p.recvHead }

// pushRecv appends an inbound message.
func (p *Peer) pushRecv(msg wire.Message) { p.recvQ = append(p.recvQ, msg) }

// popRecv removes and returns the oldest inbound message.
func (p *Peer) popRecv() wire.Message {
	msg := p.recvQ[p.recvHead]
	p.recvQ[p.recvHead] = nil
	p.recvHead++
	if p.recvHead == len(p.recvQ) {
		p.recvQ = p.recvQ[:0]
		p.recvHead = 0
	}
	return msg
}

// pushSend appends an outbound message.
func (p *Peer) pushSend(out outMsg) { p.sendQ = append(p.sendQ, out) }

// popSend removes and returns the oldest outbound message.
func (p *Peer) popSend() outMsg {
	out := p.sendQ[p.sendHead]
	p.sendQ[p.sendHead] = outMsg{}
	p.sendHead++
	if p.sendHead == len(p.sendQ) {
		p.sendQ = p.sendQ[:0]
		p.sendHead = 0
	}
	return out
}

// insertSendPriority inserts out after any existing classBlock entries at
// the front of the send queue (the §V priority-relay placement).
func (p *Peer) insertSendPriority(out outMsg) {
	insert := p.sendHead
	for insert < len(p.sendQ) && p.sendQ[insert].class == classBlock {
		insert++
	}
	p.sendQ = append(p.sendQ, outMsg{})
	copy(p.sendQ[insert+1:], p.sendQ[insert:])
	p.sendQ[insert] = out
}
