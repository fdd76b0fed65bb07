package node

import (
	"net/netip"
	"time"

	"repro/internal/chain"
	"repro/internal/chainhash"
	"repro/internal/obs"
	"repro/internal/wire"
)

// This file implements object relay: the INV/GETDATA exchange,
// transaction and block acceptance, BIP-152 compact blocks, announcements
// to peers, and the first-seen and delivery-span records that the §IV-C
// relay-delay measurement reads.

// handleInv requests announced objects we lack. An INV whose every
// entry is wanted goes back as the GETDATA itself: the two types share
// one layout, and a message is never mutated once sent or received, so
// the INV's list is the request's. Otherwise the GETDATA is a fresh one
// holding the wanted entries in order.
func (n *Node) handleInv(p *Peer, m *wire.MsgInv) {
	var gd *wire.MsgGetData
	all := true // every entry so far is wanted
	for i, iv := range m.InvList {
		p.markKnown(iv.Hash)
		want := n.wantInv(p, iv)
		switch {
		case all && want: // still the whole INV so far
		case all:
			all = false
			if i > 0 {
				gd = newGetData(m.InvList[0])
				gd.InvList = append(gd.InvList, m.InvList[1:i]...)
			}
		case !want: // not requested
		case gd == nil:
			gd = newGetData(iv)
		default:
			gd.InvList = append(gd.InvList, iv)
		}
	}
	if all && len(m.InvList) > 0 {
		gd = (*wire.MsgGetData)(m)
	}
	if gd != nil {
		n.queueMsg(p, gd, classControl)
	}
}

// wantInv reports whether iv names an object to request from p, and
// marks a wanted block in flight from p.
func (n *Node) wantInv(p *Peer, iv wire.InvVect) bool {
	switch iv.Type {
	case wire.InvTypeTx:
		return !n.mempool.Have(iv.Hash)
	case wire.InvTypeBlock:
		if n.chain.HaveBlock(iv.Hash) {
			return false
		}
		if _, inFlight := n.blocksInFlight[iv.Hash]; inFlight {
			return false
		}
		n.blocksInFlight[iv.Hash] = inFlightBlock{conn: p.id, requested: n.env.Now()}
		return true
	}
	return false
}

// oneInv is a GETDATA together with the backing array of its first
// entry, so a request naming one object — nearly every request — costs
// one allocation. Announcements need no such type: each is the INV that
// wire.MsgTx.Inv or wire.MsgBlock.Inv builds once per object and every
// node shares.
type oneInv struct {
	msg wire.MsgGetData
	one [1]wire.InvVect
}

// newGetData returns a GETDATA for iv in a single allocation; only a
// second entry appended to it grows the slice.
func newGetData(iv wire.InvVect) *wire.MsgGetData {
	m := &oneInv{one: [1]wire.InvVect{iv}}
	m.msg.InvList = m.one[:]
	return &m.msg
}

// handleGetData serves requested objects. Served bodies carry the relay
// mark: the paper's relay-delay metric runs from when this node received
// the object to when the last connection got it, and for peers without
// compact relay that is the body transfer, not the announcement.
func (n *Node) handleGetData(p *Peer, m *wire.MsgGetData) {
	var missing []wire.InvVect
	for _, iv := range m.InvList {
		switch iv.Type {
		case wire.InvTypeTx:
			if tx := n.mempool.Get(iv.Hash); tx != nil {
				out := n.relayMarkFor(iv.Hash)
				out.msg, out.class = tx, classTx
				n.queueRelay(p, &out)
				continue
			}
			missing = append(missing, iv)
		case wire.InvTypeBlock:
			if blk, err := n.chain.BlockByHash(iv.Hash); err == nil {
				out := n.relayMarkFor(iv.Hash)
				out.msg, out.class = blk, classBlock
				n.queueRelay(p, &out)
				continue
			}
			missing = append(missing, iv)
		}
	}
	if len(missing) > 0 {
		nf := &wire.MsgNotFound{}
		nf.InvList = missing
		n.queueMsg(p, nf, classControl)
	}
}

// relayFreshness bounds which body transfers count as relay: a peer that
// requests an object we announced does so within an INV→GETDATA round
// trip of our receipt, while a catching-up peer requests objects we have
// held for much longer (serving those is not relay in the paper's
// debug.log sense, and the time-since-receipt of old data would dominate
// the metric).
const relayFreshness = 15 * time.Second

// relayMarkFor starts a queue entry with relay instrumentation for an
// object seen recently; unknown or stale objects get an untracked entry
// (no event emitted). The caller fills in the message.
func (n *Node) relayMarkFor(h chainhash.Hash) outMsg {
	seen, ok := n.seenTimes[invKey(h)]
	if !ok || n.env.Now().UnixNano()-seen > int64(relayFreshness) {
		return outMsg{}
	}
	return relayOut(h, obs.SpanKey(n.cfg.Self.Addr, h[:]), time.Unix(0, seen))
}

// handleTx accepts a transaction into the mempool and relays it.
func (n *Node) handleTx(p *Peer, m *wire.MsgTx) {
	h, added := n.mempool.Add(m)
	p.markKnown(h)
	if !added {
		return
	}
	now := n.env.Now()
	n.noteSeen(h, now)
	span := n.traceDeliver(obs.KindDeliverTx, h, p.addr, now)
	// Stock unreachable (NATed) nodes accept third-party transactions
	// but do not forward them — they are relay dead-ends, one of the
	// §IV root causes. The unreachable-tx-relay policy (Franzoni &
	// Daza) turns forwarding on; reachable nodes always forward.
	if n.cfg.Reachable || n.pol.fwdTxUnreachable {
		n.announceTx(m, span, p.id, now)
	}
}

// SubmitTx injects a locally-generated transaction (the simulation's
// wallet equivalent) and relays it to all peers.
func (n *Node) SubmitTx(tx *wire.MsgTx) chainhash.Hash {
	h, added := n.mempool.Add(tx)
	if !added {
		return h
	}
	now := n.env.Now()
	n.noteSeen(h, now)
	span := n.traceDeliver(obs.KindDeliverTx, h, netip.AddrPort{}, now)
	n.announceTx(tx, span, 0, now)
	return h
}

// announceTx queues tx's INV to every handshook peer that does not
// already know it. The INV is tx.Inv(), built by the first node to
// announce the transaction and shared by every node after. span is this
// node's delivery span of the transaction, which each entry carries for
// the relay record.
func (n *Node) announceTx(tx *wire.MsgTx, span uint64, except ConnID, recvAt time.Time) {
	h := tx.TxID()
	relay := relayOut(h, span, recvAt)
	relay.class = classTx
	for _, p := range n.slots {
		if p == nil || !p.handshook || p.id == except || p.knows(h) {
			continue
		}
		p.markKnown(h)
		if relay.msg == nil {
			relay.msg = tx.Inv()
		}
		n.queueRelay(p, &relay)
	}
}

// handleBlock processes a full block body.
func (n *Node) handleBlock(p *Peer, m *wire.MsgBlock) {
	h := m.BlockHash()
	p.markKnown(h)
	if f, ok := n.blocksInFlight[h]; ok {
		dlDur := n.env.Now().Sub(f.requested)
		n.met.blockDownload.ObserveDuration(dlDur)
		if n.tracer != nil {
			n.tracer.Emit(obs.Event{
				Time: n.env.Now(), Kind: "block-download", From: p.addr,
				To: n.cfg.Self.Addr, Obj: obs.ObjectPrefix(h.Prefix()), Dur: dlDur,
			})
		}
	}
	delete(n.blocksInFlight, h)
	n.acceptAndRelayBlock(p, m)
	n.continueSync(p)
}

// acceptAndRelayBlock validates, stores, announces, and accounts a newly
// received block. Returns true when the block extended the chain.
func (n *Node) acceptAndRelayBlock(p *Peer, m *wire.MsgBlock) bool {
	h := m.BlockHash()
	if n.chain.HaveBlock(h) {
		return false
	}
	if _, err := n.chain.Accept(m); err != nil {
		// Orphan or invalid. For orphans, resync headers from this peer;
		// the block will be re-requested in order.
		if p != nil && !n.chain.HaveBlock(m.Header.PrevBlock) {
			n.requestHeaders(p)
		}
		return false
	}
	now := n.env.Now()
	n.noteSeen(h, now)
	n.mempool.RemoveBlockTxs(m)
	var peerAddr netip.AddrPort
	if p != nil {
		peerAddr = p.addr
	}
	span := n.traceDeliver(obs.KindDeliverBlock, h, peerAddr, now)
	except := ConnID(0)
	if p != nil {
		except = p.id
	}
	n.announceBlock(m, span, except, now)
	return true
}

// announceBlock queues a block announcement (compact block or INV) to
// every handshook peer that does not know the block yet; span is this
// node's delivery span of the block, which each entry carries for the
// relay record.
func (n *Node) announceBlock(blk *wire.MsgBlock, span uint64, except ConnID, recvAt time.Time) {
	h := blk.BlockHash()
	relay := relayOut(h, span, recvAt)
	relay.class = classBlock
	// One compact block per announcement, built for the first peer that
	// needs it and shared by the rest; the INV is the block's own.
	var cmpct *wire.MsgCmpctBlock
	announce := func(p *Peer) {
		if p == nil || !p.handshook || p.id == except || p.knows(h) {
			return
		}
		p.markKnown(h)
		out := relay
		if n.cfg.CompactBlocks && p.wantsCmpct {
			if cmpct == nil {
				cmpct = chain.BuildCompactBlock(blk, n.env.Rand().Uint64())
			}
			out.msg = cmpct
		} else {
			out.msg = blk.Inv()
		}
		n.queueRelay(p, &out)
	}
	// priorityOutbound announces to outbound connections first (the §V
	// refinement); the stock policies use arrival order.
	if n.pol.relay != priorityOutbound {
		for _, p := range n.slots {
			announce(p)
		}
		return
	}
	for _, p := range n.slots {
		if p != nil && p.dir != Inbound {
			announce(p)
		}
	}
	for _, p := range n.slots {
		if p != nil && p.dir == Inbound {
			announce(p)
		}
	}
}

// pendingCompact is a compact block whose reconstruction awaits a
// BLOCKTXN response.
type pendingCompact struct {
	cb      *wire.MsgCmpctBlock
	partial *chain.ReconstructResult
	from    ConnID
}

// handleCmpctBlock attempts BIP-152 reconstruction; missing transactions
// trigger a GETBLOCKTXN round trip, coupling block relay latency to
// transaction relay latency exactly as §IV-C describes.
func (n *Node) handleCmpctBlock(p *Peer, m *wire.MsgCmpctBlock) {
	h := m.BlockHash()
	p.markKnown(h)
	if n.chain.HaveBlock(h) {
		return
	}
	if !n.chain.HaveBlock(m.Header.PrevBlock) {
		// Can't connect it yet; fall back to header sync.
		n.requestHeaders(p)
		return
	}
	res, err := chain.ReconstructCompactBlock(m, n.mempool)
	if err != nil {
		// Short-ID collision: fall back to a full block request.
		n.blocksInFlight[h] = inFlightBlock{conn: p.id, requested: n.env.Now()}
		n.queueMsg(p, newGetData(wire.InvVect{Type: wire.InvTypeBlock, Hash: h}), classControl)
		return
	}
	if res.Complete {
		n.acceptAndRelayBlock(p, res.Block)
		return
	}
	n.pendingCmpct[h] = &pendingCompact{cb: m, partial: res, from: p.id}
	n.queueMsg(p, &wire.MsgGetBlockTxn{
		BlockHash: h,
		Indexes:   res.MissingIndexes,
	}, classBlock)
}

// handleGetBlockTxn serves the transactions a peer is missing from a
// compact block we relayed.
func (n *Node) handleGetBlockTxn(p *Peer, m *wire.MsgGetBlockTxn) {
	blk, err := n.chain.BlockByHash(m.BlockHash)
	if err != nil {
		nf := &wire.MsgNotFound{}
		nf.InvList = []wire.InvVect{{Type: wire.InvTypeBlock, Hash: m.BlockHash}}
		n.queueMsg(p, nf, classControl)
		return
	}
	resp, err := chain.BlockTxnFor(blk, m)
	if err != nil {
		return
	}
	n.queueMsg(p, resp, classBlock)
}

// handleBlockTxn completes a pending compact-block reconstruction.
func (n *Node) handleBlockTxn(p *Peer, m *wire.MsgBlockTxn) {
	pend, ok := n.pendingCmpct[m.BlockHash]
	if !ok {
		return
	}
	delete(n.pendingCmpct, m.BlockHash)
	blk, err := chain.CompleteReconstruction(pend.cb, pend.partial, n.mempool, m)
	if err != nil {
		// Reconstruction failed: request the full block.
		n.blocksInFlight[m.BlockHash] = inFlightBlock{conn: p.id, requested: n.env.Now()}
		n.queueMsg(p, newGetData(wire.InvVect{Type: wire.InvTypeBlock, Hash: m.BlockHash}), classControl)
		return
	}
	n.acceptAndRelayBlock(p, blk)
}

// noteSeen records the first-seen time of an object, bounding the map.
func (n *Node) noteSeen(h chainhash.Hash, t time.Time) {
	const maxSeen = 8192
	if len(n.seenTimes) >= maxSeen {
		n.seenTimes = make(map[uint64]int64, maxSeen/4)
	}
	k := invKey(h)
	if _, ok := n.seenTimes[k]; !ok {
		n.seenTimes[k] = t.UnixNano()
	}
}

// traceDeliver emits the delivery-span trace event for an accepted
// object and returns the span, which every relay entry for the object
// carries as its Parent (see relayOut). Span identity is SpanKey-derived,
// so the receiving node's Parent matches the sender's own delivery Span
// without any shared state — PropagationTree stitches the hops back
// together from the flat stream. from is the zero AddrPort at the origin
// (local mine or submit), which yields Parent 0 (tree root).
func (n *Node) traceDeliver(kind string, h chainhash.Hash, from netip.AddrPort, at time.Time) uint64 {
	self := n.cfg.Self.Addr
	span := obs.SpanKey(self, h[:])
	if n.tracer == nil {
		return span
	}
	ev := obs.Event{
		Time: at, Kind: kind, From: from, To: self,
		Obj: obs.ObjectPrefix(h.Prefix()), Span: span,
	}
	if from.IsValid() {
		ev.Parent = obs.SpanKey(from, h[:])
	} else {
		ev.From = self
	}
	n.tracer.Emit(ev)
	return span
}
