package node

import (
	"bytes"
	"net/netip"
	"slices"
	"time"

	"repro/internal/chain"
	"repro/internal/chainhash"
	"repro/internal/obs"
	"repro/internal/wire"
)

// maxBlocksInFlight bounds concurrent block downloads during IBD.
const maxBlocksInFlight = 16

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
	n.emit(Event{
		Type: EvHandshake, Time: n.env.Now(), Node: n.cfg.Self.Addr,
		Peer: p.addr, Dir: p.dir, Conn: p.id,
	})
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
		n.queueMsg(p, &wire.MsgSendCmpct{Announce: true, Version: 1}, classControl)
	}
	// Begin or continue header sync with peers that are ahead.
	if p.startHeight > n.chain.Height() {
		n.requestHeaders(p)
	} else if p.dir == Outbound && !n.syncedOnce {
		// The peer is not ahead: we are at (or past) its tip.
		n.markSynced()
	}
}

// disconnectPeer drops the connection locally and tells the environment.
// The peer is removed before env.Disconnect fires, so the OnDisconnect
// callback for this conn is a no-op and in-flight cleanup must happen
// here.
func (n *Node) disconnectPeer(p *Peer) {
	n.removePeer(p)
	n.env.Disconnect(p.id)
	n.emit(Event{
		Type: EvConnClose, Time: n.env.Now(), Node: n.cfg.Self.Addr,
		Peer: p.addr, Dir: p.dir, Conn: p.id,
	})
	n.clearInFlight(p.id)
}

// requestHeaders queues a GETHEADERS for everything after our tip.
func (n *Node) requestHeaders(p *Peer) {
	n.queueMsg(p, &wire.MsgGetHeaders{
		ProtocolVersion:    wire.ProtocolVersion,
		BlockLocatorHashes: n.chain.Locator(),
	}, classControl)
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

// handleInv requests announced objects we lack.
func (n *Node) handleInv(p *Peer, m *wire.MsgInv) {
	var gd *wire.MsgGetData
	for _, iv := range m.InvList {
		p.markKnown(iv.Hash)
		switch iv.Type {
		case wire.InvTypeTx:
			if n.mempool.Have(iv.Hash) {
				continue
			}
		case wire.InvTypeBlock:
			if n.chain.HaveBlock(iv.Hash) {
				continue
			}
			if _, inFlight := n.blocksInFlight[iv.Hash]; inFlight {
				continue
			}
			n.blocksInFlight[iv.Hash] = inFlightBlock{conn: p.id, requested: n.env.Now()}
		default:
			continue
		}
		if gd == nil {
			gd = newGetData(iv)
		} else {
			gd.InvList = append(gd.InvList, iv)
		}
	}
	if gd != nil {
		n.queueMsg(p, gd, classControl)
	}
}

// oneInv is an INV or GETDATA together with the backing array of its
// first entry, so a message naming one object — nearly every
// announcement and request — costs one allocation.
type oneInv[M any] struct {
	msg M
	one [1]wire.InvVect
}

// newInv returns a one-entry INV in a single allocation.
func newInv(iv wire.InvVect) *wire.MsgInv {
	m := &oneInv[wire.MsgInv]{one: [1]wire.InvVect{iv}}
	m.msg.InvList = m.one[:]
	return &m.msg
}

// newGetData returns a GETDATA for iv in a single allocation; only a
// second entry appended to it grows the slice.
func newGetData(iv wire.InvVect) *wire.MsgGetData {
	m := &oneInv[wire.MsgGetData]{one: [1]wire.InvVect{iv}}
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
	seen, ok := n.seenTimes[h]
	if !ok || n.env.Now().Sub(seen) > relayFreshness {
		return outMsg{}
	}
	return relayOut(h, obs.SpanKey(n.cfg.Self.Addr, h[:]), seen)
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
		n.announceTx(h, span, p.id, now)
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
	n.announceTx(h, span, 0, now)
	return h
}

// announceTx queues a transaction INV to every handshook peer that does
// not already know it: one INV, built for the first such peer and shared
// by every entry. span is this node's delivery span of the transaction,
// which each entry carries for the relay record.
func (n *Node) announceTx(h chainhash.Hash, span uint64, except ConnID, recvAt time.Time) {
	relay := relayOut(h, span, recvAt)
	relay.class = classTx
	for _, p := range n.slots {
		if p == nil || !p.handshook || p.id == except || p.knows(h) {
			continue
		}
		p.markKnown(h)
		if relay.msg == nil {
			relay.msg = newInv(wire.InvVect{Type: wire.InvTypeTx, Hash: h})
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
	// One compact block and one INV per announcement, each built for the
	// first peer that needs it and shared by the rest.
	var cmpct *wire.MsgCmpctBlock
	var inv *wire.MsgInv
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
			if inv == nil {
				inv = newInv(wire.InvVect{Type: wire.InvTypeBlock, Hash: h})
			}
			out.msg = inv
		}
		n.queueRelay(p, &out)
	}
	// PriorityOutbound announces to outbound connections first (the §V
	// refinement); the stock policies use arrival order.
	if n.pol.relay != PriorityOutbound {
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

// handleHeaders learns about blocks ahead of our tip and requests their
// bodies in order.
func (n *Node) handleHeaders(p *Peer, m *wire.MsgHeaders) {
	requested := 0
	for i := range m.Headers {
		h := m.Headers[i].BlockHash()
		if n.chain.HaveBlock(h) {
			continue
		}
		if _, inFlight := n.blocksInFlight[h]; inFlight {
			continue
		}
		if len(n.blocksInFlight) >= maxBlocksInFlight {
			break
		}
		n.blocksInFlight[h] = inFlightBlock{conn: p.id, requested: n.env.Now()}
		n.queueMsg(p, newGetData(wire.InvVect{Type: wire.InvTypeBlock, Hash: h}), classControl)
		requested++
	}
	if requested == 0 && len(m.Headers) == 0 && len(n.blocksInFlight) == 0 {
		// The peer has nothing newer: header sync is complete.
		n.markSynced()
	}
}

// continueSync keeps IBD moving: when in-flight block downloads drain and
// the peer may still be ahead, ask for more headers.
func (n *Node) continueSync(p *Peer) {
	if len(n.blocksInFlight) != 0 {
		return
	}
	if p != nil && p.startHeight > n.chain.Height() {
		n.requestHeaders(p)
		return
	}
	n.markSynced()
}

// markSynced records IBD completion (once).
func (n *Node) markSynced() {
	if n.syncedOnce {
		return
	}
	n.syncedOnce = true
	n.emit(Event{
		Type: EvSyncDone, Time: n.env.Now(), Node: n.cfg.Self.Addr,
	})
}

// handleGetHeaders serves headers following the peer's locator.
func (n *Node) handleGetHeaders(p *Peer, m *wire.MsgGetHeaders) {
	hdrs := n.chain.HeadersAfter(m.BlockLocatorHashes, 2000)
	n.queueMsg(p, &wire.MsgHeaders{Headers: hdrs}, classControl)
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

// MineBlock produces a block on top of the current tip containing up to
// maxTxs mempool transactions in txid order, accepts it locally, and
// announces it. The simulation harness invokes this on the scheduled
// miner.
func (n *Node) MineBlock(maxTxs int) (*wire.MsgBlock, error) {
	tip, height := n.chain.Tip()
	coinbase := wire.MsgTx{
		Version: 2,
		TxIn: []wire.TxIn{{
			PreviousOutPoint: wire.OutPoint{Index: 0xffffffff},
			SignatureScript: []byte{
				byte(height + 1), byte((height + 1) >> 8),
				byte((height + 1) >> 16), byte((height + 1) >> 24),
			},
			Sequence: 0xffffffff,
		}},
		TxOut: []wire.TxOut{{Value: 6_2500_0000, PkScript: []byte{0x51}}},
	}
	blk := &wire.MsgBlock{
		Header: wire.BlockHeader{
			Version:   4,
			PrevBlock: tip,
			Timestamp: uint32(n.env.Now().Unix()),
			Bits:      0x207fffff,
			Nonce:     n.env.Rand().Uint32(),
		},
		Transactions: []wire.MsgTx{coinbase},
	}
	// Template in txid order: Hashes() comes back in map order, and the
	// transaction order decides the merkle root, the block hash and which
	// transactions survive the maxTxs cap — all of which must repeat for
	// a seed.
	template := n.mempool.Hashes()
	slices.SortFunc(template, func(a, b chainhash.Hash) int { return bytes.Compare(a[:], b[:]) })
	for _, h := range template {
		if maxTxs > 0 && len(blk.Transactions) > maxTxs {
			break
		}
		if tx := n.mempool.Get(h); tx != nil {
			blk.Transactions = append(blk.Transactions, *tx)
		}
	}
	blk.Header.MerkleRoot = chain.BlockMerkleRoot(blk)
	if _, err := n.chain.Accept(blk); err != nil {
		return nil, err
	}
	n.mempool.RemoveBlockTxs(blk)
	now := n.env.Now()
	h := blk.BlockHash()
	n.noteSeen(h, now)
	span := n.traceDeliver(obs.KindDeliverBlock, h, netip.AddrPort{}, now)
	n.announceBlock(blk, span, 0, now)
	return blk, nil
}
