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
// carried as a short ID.
func BuildCompactBlock(blk *wire.MsgBlock, nonce uint64) *wire.MsgCmpctBlock {
	blockHash := blk.BlockHash()
	cb := &wire.MsgCmpctBlock{
		Header: blk.Header,
		Nonce:  nonce,
	}
	for i := range blk.Transactions {
		if i == 0 {
			cb.PrefilledTxs = append(cb.PrefilledTxs, wire.PrefilledTx{
				Index: 0,
				Tx:    blk.Transactions[0],
			})
			continue
		}
		txid := blk.Transactions[i].TxHash()
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
// up with GETBLOCKTXN.
func ReconstructCompactBlock(cb *wire.MsgCmpctBlock, pool *Mempool) (*ReconstructResult, error) {
	blockHash := cb.BlockHash()

	// Index mempool transactions by their short ID under this block's key.
	idToTx := make(map[wire.ShortID]*wire.MsgTx, pool.Size())
	for _, h := range pool.Hashes() {
		id := wire.ComputeShortID(blockHash, cb.Nonce, h)
		if _, dup := idToTx[id]; dup {
			return nil, fmt.Errorf("%w: id %x", ErrShortIDCollision, id)
		}
		idToTx[id] = pool.Get(h)
	}

	total := cb.TotalTxCount()
	slots := make([]*wire.MsgTx, total)
	prefilled := make(map[int]bool, len(cb.PrefilledTxs))
	for i := range cb.PrefilledTxs {
		p := &cb.PrefilledTxs[i]
		if int(p.Index) >= total {
			return nil, fmt.Errorf("chain: prefilled index %d out of range %d",
				p.Index, total)
		}
		slots[p.Index] = &p.Tx
		prefilled[int(p.Index)] = true
	}

	res := &ReconstructResult{}
	sid := 0
	for i := 0; i < total; i++ {
		if prefilled[i] {
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
	blk := &wire.MsgBlock{Header: cb.Header}
	blk.Transactions = make([]wire.MsgTx, total)
	for i, tx := range slots {
		blk.Transactions[i] = *tx
	}
	if err := CheckBlock(blk); err != nil {
		return nil, fmt.Errorf("chain: reconstructed block invalid: %w", err)
	}
	res.Block = blk
	res.Complete = true
	return res, nil
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
