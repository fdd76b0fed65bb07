package chain

import (
	"errors"
	"fmt"

	"repro/internal/wire"
)

// Errors specific to compact-block reconstruction.
var (
	// ErrShortIDCollision indicates two mempool transactions mapping to
	// the same short ID, making reconstruction ambiguous.
	ErrShortIDCollision = errors.New("chain: short ID collision")
	// ErrWrongBlockTxn indicates a BLOCKTXN answering a different request.
	ErrWrongBlockTxn = errors.New("chain: blocktxn does not match request")
)

// BuildCompactBlock converts a full block into its BIP-152 compact form.
// The coinbase (index 0) is always prefilled; every other transaction is
// carried as a short ID. The compact block keeps blk as its origin, so a
// receiver in this process that resolves it to blk's transactions stores
// blk itself rather than a copy.
func BuildCompactBlock(blk *wire.MsgBlock, nonce uint64) *wire.MsgCmpctBlock {
	blockHash := blk.BlockHash()
	cb := &wire.MsgCmpctBlock{
		Header: blk.Header,
		Nonce:  nonce,
	}
	cb.SetOrigin(blk)
	for i := range blk.Transactions {
		// Taken before the coinbase is copied, so the prefilled copy
		// carries the memo and reading its txid never writes to cb.
		txid := blk.Transactions[i].TxID()
		if i == 0 {
			cb.PrefilledTxs = append(cb.PrefilledTxs, wire.PrefilledTx{
				Index: 0,
				Tx:    blk.Transactions[0],
			})
			continue
		}
		cb.ShortIDs = append(cb.ShortIDs,
			wire.ComputeShortID(blockHash, nonce, txid))
	}
	return cb
}

// ReconstructResult is the outcome of attempting to rebuild a full block
// from a compact block and a mempool.
type ReconstructResult struct {
	// Block is the reconstructed block; nil unless Complete.
	Block *wire.MsgBlock
	// Complete reports whether every transaction was available.
	Complete bool
	// MissingIndexes lists block positions whose transactions were not in
	// the mempool; these feed a GETBLOCKTXN request.
	MissingIndexes []uint16
	// MempoolHits counts short IDs satisfied from the mempool.
	MempoolHits int
}

// ReconstructCompactBlock attempts to rebuild the full block for cb using
// transactions from pool. When transactions are missing it reports their
// indexes rather than failing, mirroring Bitcoin Core's flow of following
// up with GETBLOCKTXN. A block that resolves to cb's origin, transaction
// for transaction, is the origin itself; any other is a fresh copy.
func ReconstructCompactBlock(cb *wire.MsgCmpctBlock, pool *Mempool) (*ReconstructResult, error) {
	idToTx, err := pool.shortIDIndex(cb.BlockHash(), cb.Nonce)
	if err != nil {
		return nil, err
	}

	total := cb.TotalTxCount()
	slots := make([]*wire.MsgTx, total)
	for i := range cb.PrefilledTxs {
		p := &cb.PrefilledTxs[i]
		if int(p.Index) >= total {
			return nil, fmt.Errorf("chain: prefilled index %d out of range %d",
				p.Index, total)
		}
		slots[p.Index] = &p.Tx
	}

	res := &ReconstructResult{}
	sid := 0
	for i := range slots {
		if slots[i] != nil { // prefilled
			continue
		}
		id := cb.ShortIDs[sid]
		sid++
		if tx := idToTx[id]; tx != nil {
			slots[i] = tx
			res.MempoolHits++
			continue
		}
		res.MissingIndexes = append(res.MissingIndexes, uint16(i))
	}

	if len(res.MissingIndexes) > 0 {
		return res, nil
	}
	blk := resolvedOrigin(cb, slots)
	if blk == nil {
		blk = &wire.MsgBlock{Header: cb.Header}
		blk.Transactions = make([]wire.MsgTx, total)
		for i, tx := range slots {
			blk.Transactions[i] = *tx
		}
	}
	if pool.merkle, err = checkBlock(blk, pool.merkle); err != nil {
		return nil, fmt.Errorf("chain: reconstructed block invalid: %w", err)
	}
	res.Block = blk
	res.Complete = true
	return res, nil
}

// resolvedOrigin returns cb's origin when slots, the transactions cb
// resolved to, are the origin's in order: same header, same count, and
// the same txid at every index. It returns nil otherwise, and always for
// a compact block without an origin.
func resolvedOrigin(cb *wire.MsgCmpctBlock, slots []*wire.MsgTx) *wire.MsgBlock {
	blk := cb.Origin()
	if blk == nil || blk.Header != cb.Header || len(blk.Transactions) != len(slots) {
		return nil
	}
	for i, tx := range slots {
		if tx.TxID() != blk.Transactions[i].TxID() {
			return nil
		}
	}
	return blk
}

// CompleteReconstruction fills the transactions missing from a previous
// ReconstructCompactBlock attempt using a BLOCKTXN response and returns
// the full block.
func CompleteReconstruction(cb *wire.MsgCmpctBlock, partial *ReconstructResult,
	pool *Mempool, btxn *wire.MsgBlockTxn) (*wire.MsgBlock, error) {
	if btxn.BlockHash != cb.BlockHash() {
		return nil, fmt.Errorf("%w: got %s, want %s", ErrWrongBlockTxn,
			btxn.BlockHash, cb.BlockHash())
	}
	if len(btxn.Transactions) != len(partial.MissingIndexes) {
		return nil, fmt.Errorf("%w: %d transactions for %d missing indexes",
			ErrWrongBlockTxn, len(btxn.Transactions), len(partial.MissingIndexes))
	}
	// Feed the supplied transactions into the pool and retry: any short-ID
	// keyed slot they fill will now resolve.
	for i := range btxn.Transactions {
		pool.Add(&btxn.Transactions[i])
	}
	res, err := ReconstructCompactBlock(cb, pool)
	if err != nil {
		return nil, err
	}
	if !res.Complete {
		return nil, fmt.Errorf("%w: still missing %d transactions",
			ErrWrongBlockTxn, len(res.MissingIndexes))
	}
	return res.Block, nil
}

// BlockTxnFor answers a GETBLOCKTXN request from the full block.
func BlockTxnFor(blk *wire.MsgBlock, req *wire.MsgGetBlockTxn) (*wire.MsgBlockTxn, error) {
	if req.BlockHash != blk.BlockHash() {
		return nil, fmt.Errorf("%w: request for %s, have %s", ErrWrongBlockTxn,
			req.BlockHash, blk.BlockHash())
	}
	out := &wire.MsgBlockTxn{BlockHash: req.BlockHash}
	for _, idx := range req.Indexes {
		if int(idx) >= len(blk.Transactions) {
			return nil, fmt.Errorf("chain: getblocktxn index %d out of range %d",
				idx, len(blk.Transactions))
		}
		out.Transactions = append(out.Transactions, blk.Transactions[idx])
	}
	return out, nil
}
