package chain

import (
	"fmt"

	"repro/internal/chainhash"
	"repro/internal/wire"
)

// Mempool is a transaction memory pool. Compact-block reconstruction
// (§IV-C of the paper) pulls missing transactions from here; when they are
// absent the node must issue a GETBLOCKTXN round trip, which is exactly
// the delay coupling the paper highlights between transaction relay and
// block relay.
//
// A Mempool belongs to one node and is used from that node's goroutine
// only (the simnet scheduler, or tcpnet's actor loop); it takes no lock.
type Mempool struct {
	txs map[chainhash.Hash]*wire.MsgTx
	// ids is shortIDIndex's scratch, cleared and refilled on every call.
	ids map[wire.ShortID]*wire.MsgTx
	// merkle is the txid scratch for large blocks of the checks
	// ReconstructCompactBlock runs against this pool (see checkBlock).
	merkle []chainhash.Hash
}

// NewMempool returns an empty mempool.
func NewMempool() *Mempool {
	return &Mempool{txs: make(map[chainhash.Hash]*wire.MsgTx)}
}

// Add inserts tx, returning its hash and whether it was newly added.
func (m *Mempool) Add(tx *wire.MsgTx) (chainhash.Hash, bool) {
	h := tx.TxID()
	if _, ok := m.txs[h]; ok {
		return h, false
	}
	m.txs[h] = tx
	return h, true
}

// Have reports whether the pool contains the transaction.
func (m *Mempool) Have(h chainhash.Hash) bool {
	_, ok := m.txs[h]
	return ok
}

// Get returns the transaction with the given hash, or nil.
func (m *Mempool) Get(h chainhash.Hash) *wire.MsgTx {
	return m.txs[h]
}

// RemoveBlockTxs evicts every transaction confirmed by blk.
func (m *Mempool) RemoveBlockTxs(blk *wire.MsgBlock) {
	for i := range blk.Transactions {
		delete(m.txs, blk.Transactions[i].TxID())
	}
}

// Hashes returns the hashes of all pooled transactions in unspecified
// order.
func (m *Mempool) Hashes() []chainhash.Hash {
	out := make([]chainhash.Hash, 0, len(m.txs))
	for h := range m.txs {
		out = append(out, h)
	}
	return out
}

// shortIDIndex maps the BIP-152 short ID of every pooled transaction,
// keyed by (blockHash, nonce), to the transaction. The map is the pool's
// own scratch, valid until the next call. Two transactions with one
// short ID make a reconstruction ambiguous, so any collision in the pool
// is an ErrShortIDCollision.
func (m *Mempool) shortIDIndex(blockHash chainhash.Hash, nonce uint64) (map[wire.ShortID]*wire.MsgTx, error) {
	if m.ids == nil {
		m.ids = make(map[wire.ShortID]*wire.MsgTx, len(m.txs))
	}
	clear(m.ids)
	for h, tx := range m.txs {
		id := wire.ComputeShortID(blockHash, nonce, h)
		if _, dup := m.ids[id]; dup {
			return nil, fmt.Errorf("%w: id %x", ErrShortIDCollision, id)
		}
		m.ids[id] = tx
	}
	return m.ids, nil
}
