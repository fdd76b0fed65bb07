package chain

import (
	"sync"

	"repro/internal/chainhash"
	"repro/internal/wire"
)

// Mempool is a transaction memory pool. Compact-block reconstruction
// (§IV-C of the paper) pulls missing transactions from here; when they are
// absent the node must issue a GETBLOCKTXN round trip, which is exactly
// the delay coupling the paper highlights between transaction relay and
// block relay.
type Mempool struct {
	mu  sync.RWMutex
	txs map[chainhash.Hash]*wire.MsgTx
}

// NewMempool returns an empty mempool.
func NewMempool() *Mempool {
	return &Mempool{txs: make(map[chainhash.Hash]*wire.MsgTx)}
}

// Add inserts tx, returning its hash and whether it was newly added.
func (m *Mempool) Add(tx *wire.MsgTx) (chainhash.Hash, bool) {
	h := tx.TxHash()
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.txs[h]; ok {
		return h, false
	}
	m.txs[h] = tx
	return h, true
}

// Have reports whether the pool contains the transaction.
func (m *Mempool) Have(h chainhash.Hash) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.txs[h]
	return ok
}

// Get returns the transaction with the given hash, or nil.
func (m *Mempool) Get(h chainhash.Hash) *wire.MsgTx {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.txs[h]
}

// RemoveBlockTxs evicts every transaction confirmed by blk.
func (m *Mempool) RemoveBlockTxs(blk *wire.MsgBlock) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range blk.Transactions {
		delete(m.txs, blk.Transactions[i].TxHash())
	}
}

// Size returns the number of pooled transactions.
func (m *Mempool) Size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.txs)
}

// Hashes returns the hashes of all pooled transactions in unspecified
// order.
func (m *Mempool) Hashes() []chainhash.Hash {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]chainhash.Hash, 0, len(m.txs))
	for h := range m.txs {
		out = append(out, h)
	}
	return out
}
