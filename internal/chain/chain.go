// Package chain provides the blockchain substrate the node implementation
// builds on: merkle roots, a linear chain state with header/block storage,
// a transaction memory pool, and BIP-152 compact block construction and
// reconstruction.
//
// Consensus validation is intentionally thin (structural checks and chain
// linkage only): the paper measures propagation and synchronization, not
// proof-of-work, so blocks are produced by a scheduler rather than mined.
package chain

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/chainhash"
	"repro/internal/wire"
)

// Errors returned by chain operations; test with errors.Is.
var (
	// ErrOrphanBlock indicates a block whose parent is unknown.
	ErrOrphanBlock = errors.New("chain: orphan block")
	// ErrDuplicateBlock indicates a block already in the chain.
	ErrDuplicateBlock = errors.New("chain: duplicate block")
	// ErrNoCoinbase indicates a block missing its coinbase transaction.
	ErrNoCoinbase = errors.New("chain: block has no transactions")
	// ErrBadMerkleRoot indicates a merkle root not matching the
	// transactions.
	ErrBadMerkleRoot = errors.New("chain: merkle root mismatch")
	// ErrUnknownBlock indicates a lookup for a block not stored.
	ErrUnknownBlock = errors.New("chain: unknown block")
)

// MerkleRoot computes the Bitcoin merkle root of the given transaction
// hashes: pairwise double-SHA256, duplicating the final element of odd
// levels. An empty input returns the zero hash.
func MerkleRoot(txids []chainhash.Hash) chainhash.Hash {
	if len(txids) == 0 {
		return chainhash.Hash{}
	}
	level := make([]chainhash.Hash, len(txids))
	copy(level, txids)
	var buf [64]byte
	for len(level) > 1 {
		if len(level)%2 != 0 {
			level = append(level, level[len(level)-1])
		}
		next := level[:0]
		for i := 0; i < len(level); i += 2 {
			copy(buf[:32], level[i][:])
			copy(buf[32:], level[i+1][:])
			next = append(next, chainhash.DoubleSHA256(buf[:]))
		}
		level = next
	}
	return level[0]
}

// BlockMerkleRoot computes the merkle root over a block's transactions.
func BlockMerkleRoot(blk *wire.MsgBlock) chainhash.Hash {
	txids := make([]chainhash.Hash, len(blk.Transactions))
	for i := range blk.Transactions {
		txids[i] = blk.Transactions[i].TxHash()
	}
	return MerkleRoot(txids)
}

// entry is a stored block with its height.
type entry struct {
	block  *wire.MsgBlock
	height int32
}

// Chain is a linear (best-chain-only) block store. Heights start at 0 for
// the genesis block. It is safe for concurrent use.
type Chain struct {
	mu     sync.RWMutex
	byHash map[chainhash.Hash]entry
	byIdx  []chainhash.Hash // byIdx[h] = hash of block at height h
}

// New creates a chain rooted at the given genesis block.
func New(genesis *wire.MsgBlock) *Chain {
	gh := genesis.BlockHash()
	return &Chain{
		byHash: map[chainhash.Hash]entry{gh: {block: genesis, height: 0}},
		byIdx:  []chainhash.Hash{gh},
	}
}

// GenesisBlock builds a deterministic genesis block for a simulated
// network identified by tag.
func GenesisBlock(tag string) *wire.MsgBlock {
	coinbase := wire.MsgTx{
		Version: 1,
		TxIn: []wire.TxIn{{
			PreviousOutPoint: wire.OutPoint{Index: 0xffffffff},
			SignatureScript:  []byte(tag),
			Sequence:         0xffffffff,
		}},
		TxOut: []wire.TxOut{{Value: 50_0000_0000, PkScript: []byte{0x51}}},
	}
	blk := &wire.MsgBlock{
		Header: wire.BlockHeader{
			Version:   1,
			Timestamp: 1586000000,
			Bits:      0x207fffff,
		},
		Transactions: []wire.MsgTx{coinbase},
	}
	blk.Header.MerkleRoot = BlockMerkleRoot(blk)
	return blk
}

// Tip returns the hash and height of the best block.
func (c *Chain) Tip() (chainhash.Hash, int32) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	h := c.byIdx[len(c.byIdx)-1]
	return h, int32(len(c.byIdx) - 1)
}

// Height returns the best block height.
func (c *Chain) Height() int32 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return int32(len(c.byIdx) - 1)
}

// HaveBlock reports whether the chain stores the given block.
func (c *Chain) HaveBlock(h chainhash.Hash) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.byHash[h]
	return ok
}

// BlockByHash returns the stored block with the given hash.
func (c *Chain) BlockByHash(h chainhash.Hash) (*wire.MsgBlock, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.byHash[h]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownBlock, h)
	}
	return e.block, nil
}

// BlockByHeight returns the block at the given height.
func (c *Chain) BlockByHeight(height int32) (*wire.MsgBlock, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if height < 0 || int(height) >= len(c.byIdx) {
		return nil, fmt.Errorf("%w: height %d (tip %d)", ErrUnknownBlock,
			height, len(c.byIdx)-1)
	}
	return c.byHash[c.byIdx[height]].block, nil
}

// CheckBlock performs the structural validation this substrate enforces:
// a coinbase must exist and the header's merkle root must commit to the
// transactions.
func CheckBlock(blk *wire.MsgBlock) error {
	if len(blk.Transactions) == 0 {
		return ErrNoCoinbase
	}
	if got := BlockMerkleRoot(blk); got != blk.Header.MerkleRoot {
		return fmt.Errorf("%w: computed %s, header %s", ErrBadMerkleRoot,
			got, blk.Header.MerkleRoot)
	}
	return nil
}

// Accept validates blk and appends it to the chain. The block's parent
// must be the current tip (linear chain). It returns the new height.
func (c *Chain) Accept(blk *wire.MsgBlock) (int32, error) {
	if err := CheckBlock(blk); err != nil {
		return 0, err
	}
	h := blk.BlockHash()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byHash[h]; ok {
		return 0, fmt.Errorf("%w: %s", ErrDuplicateBlock, h)
	}
	tip := c.byIdx[len(c.byIdx)-1]
	if blk.Header.PrevBlock != tip {
		return 0, fmt.Errorf("%w: parent %s not tip %s", ErrOrphanBlock,
			blk.Header.PrevBlock, tip)
	}
	height := int32(len(c.byIdx))
	c.byHash[h] = entry{block: blk, height: height}
	c.byIdx = append(c.byIdx, h)
	return height, nil
}

// Locator returns a block locator for the current tip: the last 10 hashes,
// then hashes at exponentially increasing gaps, ending at genesis.
func (c *Chain) Locator() []chainhash.Hash {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var loc []chainhash.Hash
	idx := len(c.byIdx) - 1
	step := 1
	for idx >= 0 {
		loc = append(loc, c.byIdx[idx])
		if len(loc) >= 10 {
			step *= 2
		}
		if idx == 0 {
			break
		}
		idx -= step
		if idx < 0 {
			idx = 0
		}
	}
	return loc
}

// HeadersAfter returns up to max headers following the most recent locator
// hash present in the chain. Unknown locators fall back to genesis.
func (c *Chain) HeadersAfter(locator []chainhash.Hash, max int) []wire.BlockHeader {
	c.mu.RLock()
	defer c.mu.RUnlock()
	start := 0 // default: everything after genesis
	for _, lh := range locator {
		if e, ok := c.byHash[lh]; ok {
			start = int(e.height)
			break
		}
	}
	var out []wire.BlockHeader
	for h := start + 1; h < len(c.byIdx) && len(out) < max; h++ {
		out = append(out, c.byHash[c.byIdx[h]].block.Header)
	}
	return out
}
