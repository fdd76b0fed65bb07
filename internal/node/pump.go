package node

import (
	"math/bits"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// This file implements the message-handling pump: the reproduction of
// Bitcoin Core's SocketHandler/ThreadMessageHandler pair (Figure 9 of the
// paper) and the round-robin scheduling of Algorithm 3. Each pump
// iteration walks the connections in order and, per connection, processes
// at most one received message and transmits at most one queued outgoing
// message. Service time accumulates across the loop, so a block queued to
// the last of k busy connections leaves roughly k service times late —
// the mechanism behind the 1.39 s mean / 17 s max block relay delays the
// paper measures in §IV-C.

// queueMsg appends msg to the peer's vSendMsg queue (or transmits
// immediately under the broadcast schedule for announcement classes) and
// arms the pump.
func (n *Node) queueMsg(p *Peer, msg wire.Message, class msgClass) {
	n.queueRelay(p, &outMsg{msg: msg, class: class})
}

// queueRelay is queueMsg for a caller-built entry, which is how relay
// instrumentation (span, obj, recvAt) rides along. out is copied into the
// queue, not retained.
func (n *Node) queueRelay(p *Peer, out *outMsg) {
	switch {
	case n.pol.relay == broadcast && (out.class == classBlock || out.class == classTx):
		// Idealized lock-step broadcast: announcements leave instantly,
		// concurrently to every connection.
		n.transmitNow(p, out, 0)
		return
	case n.pol.relay == priorityOutbound && out.class == classBlock:
		// §V refinement: block traffic jumps ahead of queued requests.
		p.insertSendPriority(out)
	default:
		p.pushSend(out)
	}
	n.markReady(p)
	n.armPump()
}

// transmitNow hands a message to the environment with the given local
// serialization delay and, for a tracked relay, records the hop: the
// relay histogram and one relay.* trace event. Everything the event
// needs travelled in the entry; nothing is derived here.
func (n *Node) transmitNow(p *Peer, out *outMsg, delay time.Duration) {
	n.env.Transmit(p.id, out.msg, delay)
	if out.span == 0 {
		return
	}
	at := n.env.Now().Add(delay)
	relayDelay := time.Duration(at.UnixNano() - out.recvAt)
	kind := obs.KindRelayTx
	if out.class == classBlock {
		kind = obs.KindRelayBlock
		n.met.relayBlock.ObserveDuration(relayDelay)
	} else {
		n.met.relayTx.ObserveDuration(relayDelay)
	}
	if n.tracer != nil {
		// Per-hop relay span event: Parent is this node's delivery span
		// for the object, so PropagationTree can aggregate the
		// receive-to-last-connection delay without extra bookkeeping.
		n.tracer.Emit(obs.Event{
			Time: at, Kind: kind, From: n.cfg.Self.Addr, To: p.addr,
			Obj: obs.ObjectPrefix(out.obj), Dur: relayDelay, Parent: out.span,
		})
	}
}

// The ready bitmap holds one bit per slot index: bit i is set exactly
// when slots[i] is a live peer with a message in either queue. The pump
// visits set bits only, so an idle connection costs a loop nothing, and
// "any word non-zero" is the only record of pending work.

// markReady sets p's ready bit after a push onto one of its queues. A
// peer already removed from its slot gets none: nothing services it again.
func (n *Node) markReady(p *Peer) {
	if i := p.slot; i >= 0 {
		n.ready[i>>6] |= 1 << (i & 63)
	}
}

// nextReady returns the lowest ready slot index in [from, limit), or -1.
// It reads the live bitmap on every call, so a slot at or above from that
// gains work while an earlier one is serviced is still found this loop.
func (n *Node) nextReady(from, limit int) int {
	for from < limit {
		if word := n.ready[from>>6] >> (from & 63); word != 0 {
			if i := from + bits.TrailingZeros64(word); i < limit {
				return i
			}
			return -1
		}
		from = (from | 63) + 1
	}
	return -1
}

// hasPendingWork reports whether any peer queue is non-empty.
func (n *Node) hasPendingWork() bool {
	for _, word := range n.ready {
		if word != 0 {
			return true
		}
	}
	return false
}

// armPump makes sure a pump loop is coming. There is one wake-up per
// loop and it is scheduled once, for the instant the loop may start. An
// arm from inside a running loop only sets the flag (and reads no clock):
// that loop schedules the wake-up when it knows its own busyUntil.
func (n *Node) armPump() {
	if n.pumpArmed || n.stopped {
		return
	}
	if n.inPump {
		n.pumpArmed = true
		return
	}
	n.armPumpAt(n.env.Now())
}

// armPumpAt is armPump for a caller that has already read the clock. From
// outside a loop the wake-up goes to max(now, busyUntil): the previous
// loop's socket serialization may still be in progress in virtual time,
// and the next loop must not start before it completes — this is what
// makes a 1 MB block body actually occupy the wire. pumpFn is the cached
// method value: Schedule takes a func() and a fresh n.pumpOnce closure per
// call would allocate on every arm.
func (n *Node) armPumpAt(now time.Time) {
	if n.pumpArmed || n.stopped {
		return
	}
	n.pumpArmed = true
	if n.inPump {
		return
	}
	wait := time.Duration(0)
	if now.Before(n.busyUntil) {
		wait = n.busyUntil.Sub(now)
	}
	n.env.Schedule(wait, n.pumpFn)
}

// pumpOnce runs one message-handler loop iteration (Algorithm 3) over the
// slots that hold work, in ascending slot order. roundRobin and broadcast
// service connections in arrival order (Bitcoin Core iterates vNodes in
// connection order); priorityOutbound services outbound connections
// first, as a second scan of the same bitmap.
func (n *Node) pumpOnce() {
	n.pumpArmed = false
	if n.stopped {
		return
	}
	now := n.env.Now()
	n.maybeCompactSlots()
	n.inPump = true
	busy := time.Duration(0)
	// Peers added mid-loop must not be serviced this iteration, so the
	// bound is fixed here.
	limit := len(n.slots)
	if n.pol.relay != priorityOutbound {
		for i := n.nextReady(0, limit); i >= 0 && !n.stopped; i = n.nextReady(i+1, limit) {
			n.serviceSlot(i, &busy)
		}
	} else {
		for i := n.nextReady(0, limit); i >= 0 && !n.stopped; i = n.nextReady(i+1, limit) {
			if n.slots[i].dir != Inbound {
				n.serviceSlot(i, &busy)
			}
		}
		for i := n.nextReady(0, limit); i >= 0 && !n.stopped; i = n.nextReady(i+1, limit) {
			if n.slots[i].dir == Inbound {
				n.serviceSlot(i, &busy)
			}
		}
	}
	n.inPump = false
	n.maybeCompactSlots()
	if n.stopped {
		return
	}
	n.busyUntil = now.Add(busy)
	// A handler that queued work during the loop armed the pump: the next
	// loop starts as soon as this one's socket work ends. Otherwise re-run
	// while any queue holds work, a fixed overhead later.
	if n.pumpArmed {
		n.env.Schedule(busy, n.pumpFn)
	} else if n.hasPendingWork() {
		n.pumpArmed = true
		n.env.Schedule(busy+loopOverhead, n.pumpFn)
	}
}

// serviceSlot runs one round-robin quantum for the peer in ready slot i:
// process one received message, transmit one queued message. The slot is
// re-read around the handler because handling a message may disconnect
// this peer (or others — their bits clear and they are skipped).
func (n *Node) serviceSlot(i int, busy *time.Duration) {
	p := n.slots[i]
	// ThreadMessageHandler: process one message from vProcessMsg.
	if p.recvLen() > 0 {
		*busy += msgProcTime
		n.handleMessage(p, p.popRecv())
	}
	// SocketHandler: write one message from vSendMsg.
	// The peer may have been disconnected by the handler above.
	if n.stopped || n.slots[i] != p {
		return
	}
	if p.queueLen() > 0 {
		out := p.popSend()
		*busy += n.sendTime(out.msg)
		n.transmitNow(p, &out, *busy)
	}
	if p.recvLen()+p.queueLen() == 0 {
		n.ready[i>>6] &^= 1 << (i & 63)
	}
}

// maxFreeList bounds the PONG free list.
const maxFreeList = 64

// getPong returns a PONG value from the free list, or a fresh one. The
// free list is fed only by RecycleOutbound.
func (n *Node) getPong() *wire.MsgPong {
	if k := len(n.pongFree); k > 0 {
		pong := n.pongFree[k-1]
		n.pongFree = n.pongFree[:k-1]
		return pong
	}
	return new(wire.MsgPong)
}

// RecycleOutbound returns a PONG previously handed to Env.Transmit to the
// node's free list; any other message is ignored. Only an environment that
// fully consumes each transmitted message at Transmit time — serializing
// or discarding it before returning — may call this, at most once per
// transmitted message. Environments that retain message pointers or may
// deliver the same pointer twice (simnet under Duplicate fault verdicts,
// test envs that record transmits) must never call it; with the free list
// unfed, every PONG is freshly allocated.
//
// Every other message follows one rule instead: a message handed to
// Env.Transmit is never mutated afterwards, by the node or by the
// environment. That is what lets one INV, one compact block or one body
// go to every peer as the same pointer — simnet delivers it as is, and
// tcpnet's per-connection writers may encode it concurrently.
func (n *Node) RecycleOutbound(msg wire.Message) {
	if pong, ok := msg.(*wire.MsgPong); ok && len(n.pongFree) < maxFreeList {
		n.pongFree = append(n.pongFree, pong)
	}
}

// sendTime models the local serialization cost of one message: a fixed
// overhead plus wire size over the node's uplink rate.
func (n *Node) sendTime(msg wire.Message) time.Duration {
	size := n.sizeEstimate(msg)
	return msgProcTime +
		time.Duration(size)*time.Second/time.Duration(n.cfg.BytesPerSec)
}

// sizeEstimate approximates the wire size of msg without serializing.
// Full blocks are clamped up to blockSizeHint: simulated blocks carry few
// transactions, while the 2020 mainnet blocks whose propagation the paper
// measures averaged ~1 MB, and the timing model should reflect the
// latter.
func (n *Node) sizeEstimate(msg wire.Message) int {
	switch m := msg.(type) {
	case *wire.MsgBlock:
		size := m.SerializeSize()
		if size < blockSizeHint {
			size = blockSizeHint
		}
		return size
	case *wire.MsgCmpctBlock:
		// Header + nonce + 6 bytes per short ID + prefilled coinbase;
		// BIP-152 compact blocks are ~9 KB for a 1 MB block. Scale with
		// the block size hint.
		base := 88 + wire.ShortIDSize*len(m.ShortIDs) + 300
		if base < blockSizeHint/120 {
			base = blockSizeHint / 120
		}
		return base
	case *wire.MsgTx:
		return m.SerializeSize()
	case *wire.MsgBlockTxn:
		size := 40
		for i := range m.Transactions {
			size += m.Transactions[i].SerializeSize()
		}
		return size
	case *wire.MsgAddr:
		return 3 + 30*len(m.AddrList)
	case *wire.MsgInv:
		return 1 + 36*len(m.InvList)
	case *wire.MsgGetData:
		return 1 + 36*len(m.InvList)
	case *wire.MsgHeaders:
		return 1 + 81*len(m.Headers)
	case *wire.MsgGetHeaders:
		return 37 + 32*len(m.BlockLocatorHashes)
	case *wire.MsgVersion:
		return 86 + len(m.UserAgent)
	default:
		return 24
	}
}
