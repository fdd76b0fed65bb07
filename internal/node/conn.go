package node

import (
	"net/netip"

	"repro/internal/wire"
)

// This file implements connection bookkeeping: the environment's
// connection callbacks (inbound accept, disconnect, message arrival), the
// structure-of-arrays slot table the pump iterates, local disconnects, and
// the VERSION this node sends.

// OnInbound is invoked by the environment when a remote peer connects.
// It returns false when the connection must be refused (capacity or
// unreachable policy).
func (n *Node) OnInbound(remote netip.AddrPort, conn ConnID) bool {
	if n.stopped || !n.cfg.Reachable {
		return false
	}
	_, inbound, _ := n.ConnCounts()
	if inbound >= maxInbound {
		return false
	}
	n.addPeer(conn, remote, Inbound)
	return true
}

// OnDisconnect is invoked by the environment when a connection closes.
func (n *Node) OnDisconnect(conn ConnID) {
	p := n.peerByConn(conn)
	if p == nil {
		return
	}
	n.removePeer(p)
	n.emit(Event{Type: EvConnClose, Time: n.env.Now(), Dir: p.dir, Conn: conn})
	// Blocks requested from this peer will never arrive; clear them so
	// they can be re-requested from another peer at the next header sync.
	n.clearInFlight(conn)
	// A dropped outbound connection frees a slot: try to refill promptly
	// rather than waiting out the idle maintenance interval.
	if p.dir == Outbound && !n.stopped {
		n.scheduleMaintenance(0)
	}
}

// OnMessage is invoked by the environment when a message arrives on conn.
// The message is queued into the peer's vProcessMsg equivalent and
// handled by the round-robin pump. It becomes the node's to keep: the
// node retains blocks and transactions, and transmits a fully wanted INV
// back as its GETDATA. So an environment must hand over a value it will
// never reuse or mutate (tcpnet uses wire.ReadMessage, never a pooled
// Decoder's borrowed message).
func (n *Node) OnMessage(conn ConnID, msg wire.Message) {
	if n.stopped {
		return
	}
	p := n.peerByConn(conn)
	if p == nil {
		return
	}
	now := n.env.Now()
	p.lastRecv = now
	p.pushRecv(msg)
	n.markReady(p)
	n.armPumpAt(now)
}

// peerByConn resolves a connection ID to its peer, or nil.
func (n *Node) peerByConn(conn ConnID) *Peer {
	if i, ok := n.slotOf[conn]; ok {
		return n.slots[i]
	}
	return nil
}

// addPeer registers a connection in the next slot (arrival order is the
// round-robin order).
func (n *Node) addPeer(conn ConnID, remote netip.AddrPort, dir Direction) *Peer {
	p := &Peer{
		id:        conn,
		addr:      remote,
		dir:       dir,
		connected: n.env.Now(),
		slot:      int32(len(n.slots)),
		known:     &n.known,
		bit:       n.known.takeBit(),
	}
	n.slotOf[conn] = p.slot
	n.slots = append(n.slots, p)
	if len(n.slots) > 64*len(n.ready) {
		n.ready = append(n.ready, 0)
	}
	n.byAddr[remote] = p
	switch dir {
	case Outbound:
		n.nOutbound++
	case Inbound:
		n.nInbound++
	case Feeler:
		n.nFeelers++
	}
	return p
}

// removePeer unregisters a connection, leaving a nil hole so slot indices
// stay stable for an in-progress pump iteration.
func (n *Node) removePeer(p *Peer) {
	i, ok := n.slotOf[p.id]
	if !ok || n.slots[i] != p {
		return
	}
	n.slots[i] = nil
	n.slotHoles++
	n.ready[i>>6] &^= 1 << (i & 63)
	p.slot = -1
	n.known.release(p.bit, p.nKnown > 0)
	p.bit = -1
	delete(n.slotOf, p.id)
	if n.byAddr[p.addr] == p {
		delete(n.byAddr, p.addr)
	}
	switch p.dir {
	case Outbound:
		n.nOutbound--
	case Inbound:
		n.nInbound--
	case Feeler:
		n.nFeelers--
	}
	n.maybeCompactSlots()
}

// maybeCompactSlots squeezes nil holes out of the slot array once they
// outnumber live peers. It never runs while the pump is iterating: slot
// indices must stay stable within one pump pass.
func (n *Node) maybeCompactSlots() {
	if n.inPump || n.slotHoles == 0 || n.slotHoles*2 < len(n.slots) {
		return
	}
	live := n.slots[:0]
	clear(n.ready)
	for _, p := range n.slots {
		if p != nil {
			p.slot = int32(len(live))
			n.slotOf[p.id] = p.slot
			live = append(live, p)
			if p.recvLen()+p.queueLen() > 0 {
				n.markReady(p)
			}
		}
	}
	for i := len(live); i < len(n.slots); i++ {
		n.slots[i] = nil
	}
	n.slots = live
	n.slotHoles = 0
}

// disconnectPeer drops the connection locally and tells the environment.
// The peer is removed before env.Disconnect fires, so the OnDisconnect
// callback for this conn is a no-op and in-flight cleanup must happen
// here.
func (n *Node) disconnectPeer(p *Peer) {
	n.removePeer(p)
	n.env.Disconnect(p.id)
	n.emit(Event{Type: EvConnClose, Time: n.env.Now(), Dir: p.dir, Conn: p.id})
	n.clearInFlight(p.id)
}

// versionMsg builds this node's VERSION message.
func (n *Node) versionMsg() *wire.MsgVersion {
	return &wire.MsgVersion{
		ProtocolVersion: wire.ProtocolVersion,
		Services:        n.cfg.Self.Services,
		Timestamp:       n.env.Now(),
		AddrMe:          n.cfg.Self,
		Nonce:           n.env.Rand().Uint64(),
		UserAgent:       userAgent,
		StartHeight:     n.chain.Height(),
		Relay:           true,
	}
}
