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

// merkleStackTxs is the largest block whose merkle root is computed
// without a heap allocation: MerkleRoot and BlockMerkleRoot each hold
// that many hashes (16 KiB) on the stack. The relay experiments mine 150
// (quick) and 400 (full) transactions per block on average; a larger
// block takes one heap slice.
const merkleStackTxs = 512

// MerkleRoot computes the Bitcoin merkle root of the given transaction
// hashes: pairwise double-SHA256, duplicating the final element of odd
// levels. An empty input returns the zero hash. The input is not
// modified.
func MerkleRoot(txids []chainhash.Hash) chainhash.Hash {
	var stack [merkleStackTxs]chainhash.Hash
	level := stack[:]
	if len(txids) > len(stack) {
		level = make([]chainhash.Hash, len(txids))
	}
	return merkleReduce(level[:copy(level, txids)])
}

// BlockMerkleRoot computes the merkle root over a block's transactions
// from their memoized txids.
func BlockMerkleRoot(blk *wire.MsgBlock) chainhash.Hash {
	var stack [merkleStackTxs]chainhash.Hash
	return merkleReduce(txidLevel(blk, stack[:0]))
}

// txidLevel returns blk's txids in buf's backing array, or in a new one
// of exactly the block's size when buf is too small.
func txidLevel(blk *wire.MsgBlock, buf []chainhash.Hash) []chainhash.Hash {
	if n := len(blk.Transactions); cap(buf) < n {
		buf = make([]chainhash.Hash, 0, n)
	}
	buf = buf[:0]
	for i := range blk.Transactions {
		buf = append(buf, blk.Transactions[i].TxID())
	}
	return buf
}

// merkleReduce computes the merkle root of level, overwriting level with
// the inner nodes as it goes. An empty level has the zero root.
func merkleReduce(level []chainhash.Hash) chainhash.Hash {
	if len(level) == 0 {
		return chainhash.Hash{}
	}
	var buf [64]byte
	for n := len(level); n > 1; n = (n + 1) / 2 {
		for i := 0; i < n; i += 2 {
			j := i + 1
			if j == n {
				j = i // an odd level pairs its last hash with itself
			}
			copy(buf[:32], level[i][:])
			copy(buf[32:], level[j][:])
			level[i/2] = chainhash.DoubleSHA256(buf[:])
		}
	}
	return level[0]
}

// entry is a stored block with its height.
type entry struct {
	block  *wire.MsgBlock
	height int32
}

// Chain is a linear (best-chain-only) block store. Heights start at 0 for
// the genesis block. A Chain belongs to one node and is used from that
// node's goroutine only (the simnet scheduler, or tcpnet's actor loop);
// it takes no lock. Stored blocks are never mutated, so nodes of one
// process may store the same *wire.MsgBlock.
type Chain struct {
	byHash map[chainhash.Hash]entry
	byIdx  []chainhash.Hash // byIdx[h] = hash of block at height h
	// merkle is Accept's txid scratch for large blocks (see checkBlock).
	merkle []chainhash.Hash
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
	h := c.byIdx[len(c.byIdx)-1]
	return h, int32(len(c.byIdx) - 1)
}

// Height returns the best block height.
func (c *Chain) Height() int32 {
	return int32(len(c.byIdx) - 1)
}

// HaveBlock reports whether the chain stores the given block.
func (c *Chain) HaveBlock(h chainhash.Hash) bool {
	_, ok := c.byHash[h]
	return ok
}

// BlockByHash returns the stored block with the given hash.
func (c *Chain) BlockByHash(h chainhash.Hash) (*wire.MsgBlock, error) {
	e, ok := c.byHash[h]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownBlock, h)
	}
	return e.block, nil
}

// BlockByHeight returns the block at the given height.
func (c *Chain) BlockByHeight(height int32) (*wire.MsgBlock, error) {
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
	_, err := checkBlock(blk, nil)
	return err
}

// checkBlock is CheckBlock without an allocation per call: a block of up
// to merkleStackTxs transactions takes its txids on the stack, a larger
// one in big, which grows to the largest such block and is returned for
// the next call. Chain and Mempool each keep their own.
func checkBlock(blk *wire.MsgBlock, big []chainhash.Hash) ([]chainhash.Hash, error) {
	if len(blk.Transactions) == 0 {
		return big, ErrNoCoinbase
	}
	var stack [merkleStackTxs]chainhash.Hash
	var level []chainhash.Hash
	if len(blk.Transactions) > len(stack) {
		big = txidLevel(blk, big)
		level = big
	} else {
		level = txidLevel(blk, stack[:0])
	}
	if got := merkleReduce(level); got != blk.Header.MerkleRoot {
		return big, fmt.Errorf("%w: computed %s, header %s", ErrBadMerkleRoot,
			got, blk.Header.MerkleRoot)
	}
	return big, nil
}

// Accept validates blk and appends it to the chain. The block's parent
// must be the current tip (linear chain). It returns the new height.
func (c *Chain) Accept(blk *wire.MsgBlock) (int32, error) {
	var err error
	if c.merkle, err = checkBlock(blk, c.merkle); err != nil {
		return 0, err
	}
	h := blk.BlockHash()
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
