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

// This file implements chain synchronization: header sync and block
// download during IBD (§IV-D), sync completion, and local mining.

// maxBlocksInFlight bounds concurrent block downloads during IBD.
const maxBlocksInFlight = 16

// inFlightBlock records who a block was requested from and when, for the
// block-download stall detector.
type inFlightBlock struct {
	conn      ConnID
	requested time.Time
}

// requestHeaders queues a GETHEADERS for everything after our tip.
func (n *Node) requestHeaders(p *Peer) {
	n.queueMsg(p, &wire.MsgGetHeaders{
		ProtocolVersion:    wire.ProtocolVersion,
		BlockLocatorHashes: n.chain.Locator(),
	}, classControl)
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
	n.emit(Event{Type: EvSyncDone, Time: n.env.Now()})
}

// handleGetHeaders serves headers following the peer's locator.
func (n *Node) handleGetHeaders(p *Peer, m *wire.MsgGetHeaders) {
	hdrs := n.chain.HeadersAfter(m.BlockLocatorHashes, 2000)
	n.queueMsg(p, &wire.MsgHeaders{Headers: hdrs}, classControl)
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
