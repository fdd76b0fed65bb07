package node

import (
	"repro/internal/obs"
	"repro/internal/wire"
)

// This file implements message dispatch (the ProcessMessage equivalent),
// the VERSION/VERACK handshake, and ADDR/GETADDR gossip (§III, §IV-B).

// handleMessage is the ProcessMessage equivalent: dispatches one inbound
// message. It runs inside the pump loop.
func (n *Node) handleMessage(p *Peer, msg wire.Message) {
	switch m := msg.(type) {
	case *wire.MsgVersion:
		n.handleVersion(p, m)
	case *wire.MsgVerAck:
		n.handleVerAck(p)
	case *wire.MsgPing:
		pong := n.getPong()
		pong.Nonce = m.Nonce
		n.queueMsg(p, pong, classControl)
	case *wire.MsgPong:
		n.handlePong(p, m)
	case *wire.MsgGetAddr:
		n.handleGetAddr(p)
	case *wire.MsgAddr:
		n.handleAddr(p, m)
	case *wire.MsgInv:
		n.handleInv(p, m)
	case *wire.MsgGetData:
		n.handleGetData(p, m)
	case *wire.MsgTx:
		n.handleTx(p, m)
	case *wire.MsgBlock:
		n.handleBlock(p, m)
	case *wire.MsgHeaders:
		n.handleHeaders(p, m)
	case *wire.MsgGetHeaders:
		n.handleGetHeaders(p, m)
	case *wire.MsgSendCmpct:
		p.wantsCmpct = m.Announce
	case *wire.MsgCmpctBlock:
		n.handleCmpctBlock(p, m)
	case *wire.MsgGetBlockTxn:
		n.handleGetBlockTxn(p, m)
	case *wire.MsgBlockTxn:
		n.handleBlockTxn(p, m)
	default:
		// Unknown or irrelevant (reject/notfound): ignore.
	}
}

// handleVersion processes the peer's VERSION message.
func (n *Node) handleVersion(p *Peer, m *wire.MsgVersion) {
	if p.versionReceived {
		return // duplicate VERSION; ignore
	}
	p.versionReceived = true
	p.startHeight = m.StartHeight
	p.userAgent = m.UserAgent
	if p.dir == Inbound {
		// Responder sends its VERSION after seeing the initiator's.
		n.queueMsg(p, n.versionMsg(), classControl)
	}
	n.queueMsg(p, &wire.MsgVerAck{}, classControl)
	n.maybeCompleteHandshake(p)
}

// handleVerAck processes the peer's VERACK.
func (n *Node) handleVerAck(p *Peer) {
	p.verackReceived = true
	n.maybeCompleteHandshake(p)
}

// sendCmpct is the SENDCMPCT every handshake sends when compact relay is
// on. Its fields never vary and a sent message is never mutated, so all
// connections share one value.
var sendCmpct = &wire.MsgSendCmpct{Announce: true, Version: 1}

// maybeCompleteHandshake finishes connection setup once both VERSION and
// VERACK have arrived.
func (n *Node) maybeCompleteHandshake(p *Peer) {
	if p.handshook || !p.versionReceived || !p.verackReceived {
		return
	}
	p.handshook = true
	hsDur := n.env.Now().Sub(p.connected)
	n.met.handshakeTime.ObserveDuration(hsDur)
	if n.tracer != nil {
		n.tracer.Emit(obs.Event{
			Time: n.env.Now(), Kind: "handshake", From: n.cfg.Self.Addr,
			To: p.addr, Detail: p.dir.String(), Dur: hsDur,
		})
	}
	n.emit(Event{Type: EvHandshake, Time: n.env.Now(), Dir: p.dir, Conn: p.id})
	switch p.dir {
	case Feeler:
		// Feelers exist only to verify reachability: mark the address
		// good (moving it new → tried) and disconnect.
		n.addrman.Good(p.addr)
		n.disconnectPeer(p)
		return
	case Outbound:
		n.addrman.Good(p.addr)
		if n.pol.anchorsEnabled {
			n.noteAnchor(p.addr)
		}
		if !p.getAddrSent {
			p.getAddrSent = true
			n.queueMsg(p, &wire.MsgGetAddr{}, classAddr)
		}
		// Self-advertisement: every node gossips its own address.
		self := n.cfg.Self
		self.Timestamp = n.env.Now()
		n.queueMsg(p, &wire.MsgAddr{AddrList: []wire.NetAddress{self}}, classAddr)
	}
	if n.cfg.CompactBlocks {
		n.queueMsg(p, sendCmpct, classControl)
	}
	// Begin or continue header sync with peers that are ahead.
	if p.startHeight > n.chain.Height() {
		n.requestHeaders(p)
	} else if p.dir == Outbound && !n.syncedOnce {
		// The peer is not ahead: we are at (or past) its tip.
		n.markSynced()
	}
}

// handleGetAddr answers with the addrman sample. Bitcoin Core answers a
// single GETADDR per connection, which the crawler's Algorithm 1 works
// around by reconnecting; we keep the single-response rule.
func (n *Node) handleGetAddr(p *Peer) {
	if p.addrResponded {
		return
	}
	p.addrResponded = true
	// Prepend self in place: GetAddr leaves one spare element of capacity,
	// so this shifts the sample instead of copying it into a second slice.
	list := append(n.addrman.GetAddr(), wire.NetAddress{})
	copy(list[1:], list)
	list[0] = n.cfg.Self
	list[0].Timestamp = n.env.Now()
	// Respect the wire cap in chunks of MaxAddrPerMsg.
	for len(list) > 0 {
		chunk := list
		if len(chunk) > wire.MaxAddrPerMsg {
			chunk = chunk[:wire.MaxAddrPerMsg]
		}
		n.queueMsg(p, &wire.MsgAddr{AddrList: chunk}, classAddr)
		list = list[len(chunk):]
	}
}

// handleAddr folds gossiped addresses into addrman. This is the exact
// ingestion point the paper's malicious flooders exploit: nothing here
// can distinguish reachable from unreachable addresses.
func (n *Node) handleAddr(p *Peer, m *wire.MsgAddr) {
	// Measurement seam: multi-address payloads are GETADDR response
	// chunks (self-advertisements carry exactly one address), the
	// exchange shape the Grundmann estimators consume.
	if n.cfg.AddrSink != nil && len(m.AddrList) > 1 {
		n.cfg.AddrSink(p.addr, m.AddrList)
	}
	n.addrman.Add(m.AddrList, p.addr.Addr())
}
