package node

import (
	"encoding/binary"
	"math/bits"
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

	// known is the node's known-inventory table, which tracks the objects
	// this peer is known to have, to avoid redundant announcements; bit
	// is the peer's bit in it (-1 once the peer has been removed) and
	// nKnown the number of keys it holds. The table is keyed on the first
	// 64 bits of the hash (see invKey): it is probed for every peer on
	// every announcement, and an 8-byte key indexes and compares in one
	// word.
	known  *knownTable
	bit    int32
	nKnown int

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

// invKey is an object's known-inventory key: the first 8 bytes of its
// hash. Two distinct objects share a key with probability 2^-64, so a
// probe of a peer's full share of the table (8192 keys) is a false
// positive with probability below 5e-16 — against the 1e-6 of the rolling
// Bloom filter Bitcoin Core uses for the same job (filterInventoryKnown).
// A false positive costs what it costs there: one announcement to one
// peer is skipped.
func invKey(h chainhash.Hash) uint64 { return binary.LittleEndian.Uint64(h[:8]) }

// maxKnownInv bounds how many keys one peer holds in the known-inventory
// table.
const maxKnownInv = 8192

// markKnown records that the peer has (or was sent) the object.
// The peer's share of the table is bounded: once it holds maxKnownInv keys
// the peer forgets them all, which only costs an occasional duplicate
// announcement. A removed peer records nothing.
func (p *Peer) markKnown(h chainhash.Hash) {
	if p.bit < 0 {
		return
	}
	if p.nKnown >= maxKnownInv {
		p.known.clearBit(p.bit)
		p.nKnown = 0
	}
	if p.known.add(p.bit, invKey(h)) {
		p.nKnown++
	}
}

// knows reports whether the peer is known to have the object; a removed
// peer knows nothing.
func (p *Peer) knows(h chainhash.Hash) bool {
	return p.bit >= 0 && p.known.has(p.bit, invKey(h))
}

// knownTable is a node's known-inventory table: one open-addressed table
// of invKeys, each with a bitset holding one bit per peer that knows the
// object. Bitcoin Core keeps a filter per peer; one table per node stores
// each key once however many peers know it. A peer's bit comes from
// takeBit and stays put while it is connected (its slot does not:
// compaction renumbers slots).
//
// The keys are hash prefixes, uniform already, so the low bits index the
// table directly and collisions probe linearly. A zero cell is empty; the
// zero key's bitset is kept beside the table. A key whose bitset empties
// keeps its cell until the next rehash drops it. An insert that would pass
// half load rehashes first, so a probe sequence always ends at an empty
// cell.
type knownTable struct {
	keys  []uint64 // power-of-two length, 0 = empty cell
	bits  []uint64 // the bitset of keys[i] is bits[i*words:][:words]
	words int      // bitset words per key: one per 64 peer bits
	used  int      // occupied cells
	zero  []uint64 // the zero key's bitset, words long
	taken []uint64 // peer bits held by connected peers, words long
}

const knownTableMinCells = 16

// takeBit hands out the lowest free peer bit, widening every bitset by a
// word when all are taken.
func (t *knownTable) takeBit() int32 {
	w := 0
	for w < len(t.taken) && t.taken[w] == ^uint64(0) {
		w++
	}
	if w == t.words {
		t.words++
		t.taken = append(t.taken, 0)
		t.zero = append(t.zero, 0)
		if len(t.keys) > 0 {
			t.rehash()
		}
	}
	b := bits.TrailingZeros64(^t.taken[w])
	t.taken[w] |= 1 << b
	return int32(64*w + b)
}

// release frees peer bit b. When its peer marked anything (marked), the
// bit is first cleared from every bitset, so its next holder starts out
// knowing nothing.
func (t *knownTable) release(b int32, marked bool) {
	if marked {
		t.clearBit(b)
	}
	t.taken[b>>6] &^= 1 << (b & 63)
}

// find returns k's cell, or the empty cell that ends its probe sequence
// (none in a table without cells). k is nonzero.
func (t *knownTable) find(k uint64) (int, bool) {
	if len(t.keys) == 0 {
		return 0, false
	}
	mask := uint64(len(t.keys) - 1)
	for i := k & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return int(i), true
		case 0:
			return int(i), false
		}
	}
}

// has reports whether bit b is set on key k.
func (t *knownTable) has(b int32, k uint64) bool {
	w, m := int(b>>6), uint64(1)<<(b&63)
	if k == 0 {
		return t.zero[w]&m != 0
	}
	i, ok := t.find(k)
	return ok && t.bits[i*t.words+w]&m != 0
}

// add sets bit b on key k, inserting the key if absent, and reports
// whether the bit was clear.
func (t *knownTable) add(b int32, k uint64) bool {
	w, m := int(b>>6), uint64(1)<<(b&63)
	set := &t.zero[w]
	if k != 0 {
		i, ok := t.find(k)
		if !ok {
			if 2*(t.used+1) > len(t.keys) {
				t.rehash()
				i, _ = t.find(k)
			}
			t.keys[i] = k
			t.used++
		}
		set = &t.bits[i*t.words+w]
	}
	if *set&m != 0 {
		return false
	}
	*set |= m
	return true
}

// clearBit removes bit b from every bitset.
func (t *knownTable) clearBit(b int32) {
	w, m := int(b>>6), ^(uint64(1) << (b & 63))
	t.zero[w] &= m
	for i := w; i < len(t.bits); i += t.words {
		t.bits[i] &= m
	}
}

// rehash re-places every key whose bitset is not empty into fresh arrays
// of t.words words per bitset, sized to leave them at most a third full.
// Keys with empty bitsets are dropped.
func (t *knownTable) rehash() {
	oldKeys, oldBits := t.keys, t.bits
	oldWords := 0
	if len(oldKeys) > 0 {
		oldWords = len(oldBits) / len(oldKeys)
	}
	live := 0
	for i, k := range oldKeys {
		if k != 0 && anySet(oldBits[i*oldWords:][:oldWords]) {
			live++
		}
	}
	size := knownTableMinCells
	for size < 3*(live+1) {
		size *= 2
	}
	t.keys, t.bits, t.used = make([]uint64, size), make([]uint64, size*t.words), live
	for i, k := range oldKeys {
		set := oldBits[i*oldWords:][:oldWords]
		if k == 0 || !anySet(set) {
			continue
		}
		j, _ := t.find(k)
		t.keys[j] = k
		copy(t.bits[j*t.words:], set)
	}
}

// anySet reports whether any bit of set is set.
func anySet(set []uint64) bool {
	for _, x := range set {
		if x != 0 {
			return true
		}
	}
	return false
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
