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

// outMsg is one entry of a peer's vSendMsg queue. It is copied by value
// into and out of the queue once per message, so it holds what the relay
// record needs and nothing it could re-derive: 48 bytes (pinned by
// TestOutMsgSize).
type outMsg struct {
	msg   wire.Message
	class msgClass
	// span is this node's delivery span of the relayed object, the relay
	// event's Parent (zero when the entry is not a tracked relay).
	span uint64
	// obj is the object's hash prefix (chainhash.Hash.Prefix), the relay
	// event's label.
	obj [8]byte
	// recvAt is when the relayed object was first received, in Unix
	// nanoseconds: the start of the relay delay.
	recvAt int64
}

// relayOut starts a queue entry that records the relay of object h, first
// received at recvAt, under this node's delivery span for it. The caller
// fills in the message and class.
func relayOut(h chainhash.Hash, span uint64, recvAt time.Time) outMsg {
	return outMsg{span: span, obj: h.Prefix(), recvAt: recvAt.UnixNano()}
}

// Peer is the node-side state of one connection, mirroring Bitcoin Core's
// CNode: the vProcessMsg receive queue, the vSendMsg send queue, and the
// relay bookkeeping.
type Peer struct {
	id        ConnID
	addr      netip.AddrPort
	dir       Direction
	connected time.Time
	// slot is the peer's index in Node.slots (and in the ready bitmap);
	// -1 once the peer has been removed.
	slot int32

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
	// announcement, and an 8-byte key indexes and compares in one word.
	knownInv invSet

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

// invKey is an object's knownInv key: the first 8 bytes of its hash. Two
// distinct objects share a key with probability 2^-64, so a probe of a
// full set (8192 entries) is a false positive with probability below
// 5e-16 — against the 1e-6 of the rolling Bloom filter Bitcoin Core uses
// for the same job (filterInventoryKnown). A false positive costs what it
// costs there: one announcement to one peer is skipped.
func invKey(h chainhash.Hash) uint64 { return binary.LittleEndian.Uint64(h[:8]) }

// maxKnownInv bounds a peer's knownInv set.
const maxKnownInv = 8192

// markKnown records that the peer has (or was sent) the object.
// The set is bounded: once it holds maxKnownInv keys it is emptied, which
// only costs an occasional duplicate announcement.
func (p *Peer) markKnown(h chainhash.Hash) {
	if p.knownInv.n >= maxKnownInv {
		p.knownInv.reset()
	}
	p.knownInv.add(invKey(h))
}

// knows reports whether the peer is known to have the object.
func (p *Peer) knows(h chainhash.Hash) bool { return p.knownInv.has(invKey(h)) }

// invSet is an exact set of 64-bit keys in one open-addressed table. The
// keys are hash prefixes, uniform already, so the low bits index the
// table directly and collisions probe linearly. A zero cell is empty; the
// zero key is a flag beside the table. The table starts at invSetMinCells
// on the first add and doubles whenever it would pass half load, so a
// probe sequence always ends at an empty cell.
type invSet struct {
	cells []uint64 // power-of-two length, 0 = empty cell
	n     int      // keys held, the zero key included
	zero  bool     // the zero key is a member
}

const invSetMinCells = 16

// has reports whether k is in the set.
func (s *invSet) has(k uint64) bool {
	if k == 0 {
		return s.zero
	}
	if len(s.cells) == 0 {
		return false
	}
	mask := uint64(len(s.cells) - 1)
	for i := k & mask; ; i = (i + 1) & mask {
		switch s.cells[i] {
		case k:
			return true
		case 0:
			return false
		}
	}
}

// add inserts k; adding a member again changes nothing.
func (s *invSet) add(k uint64) {
	if k == 0 {
		if !s.zero {
			s.zero = true
			s.n++
		}
		return
	}
	if 2*(s.n+1) > len(s.cells) {
		s.grow()
	}
	if s.place(k) {
		s.n++
	}
}

// place stores k in the first free cell of its probe sequence and reports
// whether it was absent.
func (s *invSet) place(k uint64) bool {
	mask := uint64(len(s.cells) - 1)
	for i := k & mask; ; i = (i + 1) & mask {
		switch s.cells[i] {
		case k:
			return false
		case 0:
			s.cells[i] = k
			return true
		}
	}
}

// grow doubles the table and re-places every key.
func (s *invSet) grow() {
	old := s.cells
	s.cells = make([]uint64, max(invSetMinCells, 2*len(old)))
	for _, k := range old {
		if k != 0 {
			s.place(k)
		}
	}
}

// reset empties the set in place; the table keeps its size.
func (s *invSet) reset() {
	clear(s.cells)
	s.n, s.zero = 0, false
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
func (p *Peer) pushSend(out *outMsg) { p.sendQ = append(p.sendQ, *out) }

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
func (p *Peer) insertSendPriority(out *outMsg) {
	insert := p.sendHead
	for insert < len(p.sendQ) && p.sendQ[insert].class == classBlock {
		insert++
	}
	p.sendQ = append(p.sendQ, outMsg{})
	copy(p.sendQ[insert+1:], p.sendQ[insert:])
	p.sendQ[insert] = *out
}
