package node

import (
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
// immediately under the Broadcast policy for announcement classes) and
// arms the pump.
func (n *Node) queueMsg(p *Peer, msg wire.Message, class msgClass) {
	n.queueRelay(p, msg, class, outMsg{})
}

// queueRelay is queueMsg with relay instrumentation: mark carries the
// object hash and original receive time.
func (n *Node) queueRelay(p *Peer, msg wire.Message, class msgClass, mark outMsg) {
	out := outMsg{
		msg:       msg,
		class:     class,
		enqueued:  n.env.Now(),
		relayMark: mark.relayMark,
		recvAt:    mark.recvAt,
	}
	switch n.pol.relay {
	case Broadcast:
		// Idealized lock-step broadcast: announcements leave instantly,
		// concurrently to every connection.
		if class == classBlock || class == classTx {
			n.transmitNow(p, out, 0)
			return
		}
	case PriorityOutbound:
		// §V refinement: block traffic jumps ahead of queued requests.
		if class == classBlock {
			p.insertSendPriority(out)
			n.pending++
			n.armPump()
			return
		}
	}
	p.pushSend(out)
	n.pending++
	n.armPump()
}

// transmitNow hands a message to the environment with the given local
// serialization delay and emits relay instrumentation.
func (n *Node) transmitNow(p *Peer, out outMsg, delay time.Duration) {
	n.env.Transmit(p.id, out.msg, delay)
	if out.relayMark.IsZero() {
		return
	}
	at := n.env.Now().Add(delay)
	relayDelay := at.Sub(out.recvAt)
	evType := EvTxRelayed
	kind := obs.KindRelayTx
	if out.class == classBlock {
		evType = EvBlockRelayed
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
			Obj: obs.ObjectPrefix(out.relayMark.Prefix()), Dur: relayDelay,
			Parent: obs.SpanKey(n.cfg.Self.Addr, out.relayMark[:]),
		})
	}
	n.emit(Event{
		Type: evType, Time: at, Node: n.cfg.Self.Addr, Peer: p.addr,
		Dir: p.dir, Hash: out.relayMark, Delay: relayDelay,
	})
}

// armPump schedules a pump iteration if one is not already pending.
// pumpFn is the cached method value: Schedule takes a func() and a fresh
// n.pumpOnce closure per call would allocate on every arm.
func (n *Node) armPump() {
	if n.pumpArmed || n.stopped {
		return
	}
	n.pumpArmed = true
	n.env.Schedule(0, n.pumpFn)
}

// pumpOnce runs one message-handler loop iteration (Algorithm 3).
// RoundRobin and Broadcast service connections in arrival order (Bitcoin
// Core iterates vNodes in connection order); PriorityOutbound services
// outbound connections first, as a second inline pass over the slots —
// no order slice is materialized.
func (n *Node) pumpOnce() {
	n.pumpArmed = false
	if n.stopped {
		return
	}
	// The previous loop's socket serialization may still be in progress
	// in virtual time (a pump armed by message arrival fires
	// immediately); do not start the next loop before it completes —
	// this is what makes a 1 MB block body actually occupy the wire.
	now := n.env.Now()
	if now.Before(n.busyUntil) {
		n.pumpArmed = true
		n.env.Schedule(n.busyUntil.Sub(now), n.pumpFn)
		return
	}
	n.maybeCompactSlots()
	n.inPump = true
	busy := time.Duration(0)
	// Peers added mid-loop must not be serviced this iteration (the old
	// order snapshot had the same property), so the bound is fixed here.
	limit := len(n.slots)
	if n.pol.relay != PriorityOutbound {
		for i := 0; i < limit && !n.stopped; i++ {
			n.serviceSlot(i, &busy)
		}
	} else {
		for i := 0; i < limit && !n.stopped; i++ {
			if p := n.slots[i]; p != nil && p.dir != Inbound {
				n.serviceSlot(i, &busy)
			}
		}
		for i := 0; i < limit && !n.stopped; i++ {
			if p := n.slots[i]; p != nil && p.dir == Inbound {
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
	// Re-run while any queue holds work; each loop costs its accumulated
	// service time plus a fixed overhead. armPump may already have
	// scheduled a wake-up during processing; the busyUntil guard above
	// keeps that early firing honest.
	if n.hasPendingWork() && !n.pumpArmed {
		n.pumpArmed = true
		n.env.Schedule(busy+n.cfg.LoopOverhead, n.pumpFn)
	}
}

// serviceSlot runs one round-robin quantum for the peer in slot i:
// process one received message, transmit one queued message. The slot is
// re-read around the handler because handling a message may disconnect
// this peer (or others — their slots go nil and are skipped naturally).
func (n *Node) serviceSlot(i int, busy *time.Duration) {
	p := n.slots[i]
	if p == nil {
		return
	}
	// ThreadMessageHandler: process one message from vProcessMsg.
	if p.recvLen() > 0 {
		*busy += n.cfg.MsgProcTime
		n.pending--
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
		n.pending--
		n.transmitNow(p, out, *busy)
	}
}

// maxFreeList bounds each recycled-message free list.
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

// getInv returns an empty INV from the free list, or a fresh one.
func (n *Node) getInv() *wire.MsgInv {
	if k := len(n.invFree); k > 0 {
		inv := n.invFree[k-1]
		n.invFree = n.invFree[:k-1]
		inv.InvList = inv.InvList[:0]
		return inv
	}
	return new(wire.MsgInv)
}

// RecycleOutbound returns a message previously handed to Env.Transmit to
// the node's free lists. Only an environment that fully consumes each
// transmitted message at Transmit time — serializing or discarding it
// before returning — may call this, at most once per transmitted
// message. Environments that retain message pointers or may deliver the
// same pointer twice (simnet under Duplicate fault verdicts, test envs
// that record transmits) must never call it; with the free lists unfed,
// every outbound message is freshly allocated, exactly as before.
func (n *Node) RecycleOutbound(msg wire.Message) {
	switch m := msg.(type) {
	case *wire.MsgPong:
		if len(n.pongFree) < maxFreeList {
			n.pongFree = append(n.pongFree, m)
		}
	case *wire.MsgInv:
		if len(n.invFree) < maxFreeList && cap(m.InvList) <= 64 {
			n.invFree = append(n.invFree, m)
		}
	}
}

// hasPendingWork reports whether any peer queue is non-empty.
func (n *Node) hasPendingWork() bool { return n.pending > 0 }

// sendTime models the local serialization cost of one message: a fixed
// overhead plus wire size over the per-socket rate.
func (n *Node) sendTime(msg wire.Message) time.Duration {
	size := n.sizeEstimate(msg)
	return n.cfg.MsgProcTime +
		time.Duration(size)*time.Second/time.Duration(n.cfg.BytesPerSec)
}

// sizeEstimate approximates the wire size of msg without serializing.
// Full blocks are clamped up to BlockSizeHint: simulated blocks carry few
// transactions, while the 2020 mainnet blocks whose propagation the paper
// measures averaged ~1 MB, and the timing model should reflect the
// latter.
func (n *Node) sizeEstimate(msg wire.Message) int {
	switch m := msg.(type) {
	case *wire.MsgBlock:
		size := m.SerializeSize()
		if size < n.cfg.BlockSizeHint {
			size = n.cfg.BlockSizeHint
		}
		return size
	case *wire.MsgCmpctBlock:
		// Header + nonce + 6 bytes per short ID + prefilled coinbase;
		// BIP-152 compact blocks are ~9 KB for a 1 MB block. Scale with
		// the block size hint.
		base := 88 + wire.ShortIDSize*len(m.ShortIDs) + 300
		hintScaled := n.cfg.BlockSizeHint / 120
		if base < hintScaled {
			base = hintScaled
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
