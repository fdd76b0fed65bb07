package chain

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/chainhash"
	"repro/internal/wire"
)

// makeTx builds a deterministic dummy transaction distinguished by seed.
func makeTx(seed uint32) wire.MsgTx {
	return wire.MsgTx{
		Version: 2,
		TxIn: []wire.TxIn{{
			PreviousOutPoint: wire.OutPoint{Index: seed},
			SignatureScript:  []byte{byte(seed), byte(seed >> 8), byte(seed >> 16)},
			Sequence:         0xffffffff,
		}},
		TxOut: []wire.TxOut{{Value: int64(seed) * 1000, PkScript: []byte{0x51}}},
	}
}

// nextBlock builds a valid successor of the chain tip with n extra txs.
func nextBlock(t *testing.T, c *Chain, n int, seedBase uint32) *wire.MsgBlock {
	t.Helper()
	tip, height := c.Tip()
	blk := &wire.MsgBlock{
		Header: wire.BlockHeader{
			Version:   4,
			PrevBlock: tip,
			Timestamp: uint32(1586000000 + height*600),
			Bits:      0x207fffff,
		},
		Transactions: []wire.MsgTx{makeTx(seedBase)}, // coinbase stand-in
	}
	for i := 1; i <= n; i++ {
		blk.Transactions = append(blk.Transactions, makeTx(seedBase+uint32(i)))
	}
	blk.Header.MerkleRoot = BlockMerkleRoot(blk)
	return blk
}

func TestMerkleRootEmpty(t *testing.T) {
	if got := MerkleRoot(nil); got != (chainhash.Hash{}) {
		t.Errorf("MerkleRoot(nil) = %s, want zero", got)
	}
}

func TestMerkleRootSingle(t *testing.T) {
	h := chainhash.DoubleSHA256([]byte("tx"))
	if got := MerkleRoot([]chainhash.Hash{h}); got != h {
		t.Errorf("single-tx merkle root = %s, want the txid %s", got, h)
	}
}

func TestMerkleRootOddDuplication(t *testing.T) {
	a := chainhash.DoubleSHA256([]byte("a"))
	b := chainhash.DoubleSHA256([]byte("b"))
	c := chainhash.DoubleSHA256([]byte("c"))
	// Odd level duplicates the last element: root(a,b,c) == root over
	// pairs (a,b), (c,c).
	var buf [64]byte
	copy(buf[:32], a[:])
	copy(buf[32:], b[:])
	ab := chainhash.DoubleSHA256(buf[:])
	copy(buf[:32], c[:])
	copy(buf[32:], c[:])
	cc := chainhash.DoubleSHA256(buf[:])
	copy(buf[:32], ab[:])
	copy(buf[32:], cc[:])
	want := chainhash.DoubleSHA256(buf[:])
	if got := MerkleRoot([]chainhash.Hash{a, b, c}); got != want {
		t.Errorf("3-leaf merkle root = %s, want %s", got, want)
	}
}

func TestMerkleRootDoesNotMutateInput(t *testing.T) {
	a := chainhash.DoubleSHA256([]byte("a"))
	b := chainhash.DoubleSHA256([]byte("b"))
	c := chainhash.DoubleSHA256([]byte("c"))
	in := []chainhash.Hash{a, b, c}
	MerkleRoot(in)
	if in[0] != a || in[1] != b || in[2] != c {
		t.Error("MerkleRoot mutated its input slice")
	}
}

func TestGenesisDeterministic(t *testing.T) {
	a, b := GenesisBlock("sim"), GenesisBlock("sim")
	if a.BlockHash() != b.BlockHash() {
		t.Error("same tag must produce the same genesis")
	}
	if a.BlockHash() == GenesisBlock("other").BlockHash() {
		t.Error("different tags must produce different geneses")
	}
	if err := CheckBlock(a); err != nil {
		t.Errorf("genesis invalid: %v", err)
	}
}

func TestChainAcceptAndQuery(t *testing.T) {
	c := New(GenesisBlock("t"))
	if c.Height() != 0 {
		t.Fatalf("initial height = %d, want 0", c.Height())
	}
	var blocks []*wire.MsgBlock
	for i := 0; i < 5; i++ {
		blk := nextBlock(t, c, 2, uint32(i*100))
		h, err := c.Accept(blk)
		if err != nil {
			t.Fatalf("accept block %d: %v", i, err)
		}
		if h != int32(i+1) {
			t.Errorf("height = %d, want %d", h, i+1)
		}
		blocks = append(blocks, blk)
	}
	tip, height := c.Tip()
	if height != 5 {
		t.Errorf("tip height = %d, want 5", height)
	}
	if tip != blocks[4].BlockHash() {
		t.Error("tip hash mismatch")
	}
	got, err := c.BlockByHeight(3)
	if err != nil {
		t.Fatal(err)
	}
	if got.BlockHash() != blocks[2].BlockHash() {
		t.Error("BlockByHeight(3) mismatch")
	}
	if !c.HaveBlock(blocks[0].BlockHash()) {
		t.Error("HaveBlock false for stored block")
	}
}

func TestChainRejectsDuplicate(t *testing.T) {
	c := New(GenesisBlock("t"))
	blk := nextBlock(t, c, 0, 1)
	if _, err := c.Accept(blk); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Accept(blk); !errors.Is(err, ErrDuplicateBlock) {
		t.Errorf("err = %v, want ErrDuplicateBlock", err)
	}
}

func TestChainRejectsOrphan(t *testing.T) {
	c := New(GenesisBlock("t"))
	blk := nextBlock(t, c, 0, 1)
	blk.Header.PrevBlock = chainhash.DoubleSHA256([]byte("elsewhere"))
	blk.Header.MerkleRoot = BlockMerkleRoot(blk)
	if _, err := c.Accept(blk); !errors.Is(err, ErrOrphanBlock) {
		t.Errorf("err = %v, want ErrOrphanBlock", err)
	}
}

// TestChainRejectsBadMerkle corrupts the header's root of a block whose
// txids nextBlock has memoized: a zeroed root, and one bit flipped.
func TestChainRejectsBadMerkle(t *testing.T) {
	c := New(GenesisBlock("t"))
	blk := nextBlock(t, c, 1, 1)
	blk.Header.MerkleRoot = chainhash.Hash{} // corrupt
	if _, err := c.Accept(blk); !errors.Is(err, ErrBadMerkleRoot) {
		t.Errorf("err = %v, want ErrBadMerkleRoot", err)
	}
	blk = nextBlock(t, c, 5, 70)
	blk.Header.MerkleRoot[7] ^= 0x01
	if err := CheckBlock(blk); !errors.Is(err, ErrBadMerkleRoot) {
		t.Errorf("one bit flipped: err = %v, want ErrBadMerkleRoot", err)
	}
}

// TestBlockMerkleRootMatchesFreshHashes holds BlockMerkleRoot, which
// reads memoized txids into a stack array and reduces it in place, and
// MerkleRoot to a level-by-level reference over TxHash values of fresh
// copies, on both sides of the stack array's size and at MineBlock's cap
// of 2,001 transactions. Up to the stack size, a warm BlockMerkleRoot
// allocates nothing, and MerkleRoot never modifies its input, including
// on the heap path.
func TestBlockMerkleRootMatchesFreshHashes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 6, 7, merkleStackTxs - 1, merkleStackTxs, merkleStackTxs + 1, 2001} {
		blk := &wire.MsgBlock{}
		leaves := make([]chainhash.Hash, n)
		for i := 0; i < n; i++ {
			blk.Transactions = append(blk.Transactions, makeTx(uint32(i)))
			fresh := makeTx(uint32(i))
			leaves[i] = fresh.TxHash()
		}
		want := refMerkleRoot(leaves)
		if got := BlockMerkleRoot(blk); got != want {
			t.Errorf("%d txs: BlockMerkleRoot %s, reference root of fresh hashes %s", n, got, want)
		}
		if got := MerkleRoot(leaves); got != want {
			t.Errorf("%d txs: MerkleRoot %s, reference root %s", n, got, want)
		}
		for i := range leaves {
			if fresh := makeTx(uint32(i)); leaves[i] != fresh.TxHash() {
				t.Fatalf("%d txs: MerkleRoot modified leaf %d", n, i)
			}
		}
		if n > merkleStackTxs {
			continue
		}
		if a := testing.AllocsPerRun(5, func() { BlockMerkleRoot(blk) }); a != 0 {
			t.Errorf("%d txs: warm BlockMerkleRoot allocates %.1f per run, want 0", n, a)
		}
	}
}

// TestLargeBlockChecksReuseScratch pins the merkle check of a block above
// merkleStackTxs: Chain.Accept and ReconstructCompactBlock each keep the
// txid scratch their first such block grew, so checking it again
// allocates nothing, while the exported CheckBlock still takes one slice
// per call.
func TestLargeBlockChecksReuseScratch(t *testing.T) {
	c := New(GenesisBlock("t"))
	blk := nextBlock(t, c, 599, 700) // 600 transactions
	if _, err := c.Accept(blk); err != nil {
		t.Fatal(err)
	}
	if cap(c.merkle) != len(blk.Transactions) {
		t.Fatalf("chain scratch holds %d txids, want %d", cap(c.merkle), len(blk.Transactions))
	}
	var err error
	if a := testing.AllocsPerRun(10, func() { c.merkle, err = checkBlock(blk, c.merkle) }); a != 0 || err != nil {
		t.Errorf("chain re-check: %.1f allocs per run (err %v), want 0", a, err)
	}
	if a := testing.AllocsPerRun(10, func() { err = CheckBlock(blk) }); a != 1 || err != nil {
		t.Errorf("CheckBlock: %.1f allocs per run (err %v), want 1", a, err)
	}

	cb := BuildCompactBlock(blk, 11)
	pool := NewMempool()
	for i := 1; i < len(blk.Transactions); i++ {
		pool.Add(&blk.Transactions[i])
	}
	if res, err := ReconstructCompactBlock(cb, pool); err != nil || res.Block != blk {
		t.Fatalf("reconstruct: %v, block %p, want the origin %p", err, res.Block, blk)
	}
	if cap(pool.merkle) != len(blk.Transactions) {
		t.Fatalf("mempool scratch holds %d txids, want %d", cap(pool.merkle), len(blk.Transactions))
	}
	// What is left is the slot table and the result, not the txids.
	if a := testing.AllocsPerRun(10, func() { _, err = ReconstructCompactBlock(cb, pool) }); a != 2 || err != nil {
		t.Errorf("warm reconstruct: %.1f allocs per run (err %v), want 2", a, err)
	}
}

// refMerkleRoot is the textbook merkle root: each level is a new slice
// of the hashes of the previous level's pairs, an odd level's last hash
// paired with itself.
func refMerkleRoot(leaves []chainhash.Hash) chainhash.Hash {
	level := leaves
	for len(level) > 1 {
		var next []chainhash.Hash
		for i := 0; i < len(level); i += 2 {
			right := level[len(level)-1]
			if i+1 < len(level) {
				right = level[i+1]
			}
			pair := append(append([]byte{}, level[i][:]...), right[:]...)
			next = append(next, chainhash.DoubleSHA256(pair))
		}
		level = next
	}
	return level[0]
}

func TestChainRejectsEmptyBlock(t *testing.T) {
	c := New(GenesisBlock("t"))
	blk := &wire.MsgBlock{Header: wire.BlockHeader{PrevBlock: c.byIdx[0]}}
	if _, err := c.Accept(blk); !errors.Is(err, ErrNoCoinbase) {
		t.Errorf("err = %v, want ErrNoCoinbase", err)
	}
}

func TestChainUnknownLookups(t *testing.T) {
	c := New(GenesisBlock("t"))
	bogus := chainhash.DoubleSHA256([]byte("missing"))
	if _, err := c.BlockByHash(bogus); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("BlockByHash err = %v, want ErrUnknownBlock", err)
	}
	if _, err := c.BlockByHeight(9); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("BlockByHeight err = %v, want ErrUnknownBlock", err)
	}
	if _, err := c.BlockByHeight(-1); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("BlockByHeight(-1) err = %v, want ErrUnknownBlock", err)
	}
}

func TestLocatorAndHeadersAfter(t *testing.T) {
	c := New(GenesisBlock("t"))
	for i := 0; i < 40; i++ {
		if _, err := c.Accept(nextBlock(t, c, 0, uint32(i*10))); err != nil {
			t.Fatal(err)
		}
	}
	loc := c.Locator()
	if len(loc) == 0 {
		t.Fatal("empty locator")
	}
	tip, _ := c.Tip()
	if loc[0] != tip {
		t.Error("locator must start at the tip")
	}
	if loc[len(loc)-1] != c.byIdx[0] {
		t.Error("locator must end at genesis")
	}
	// A peer behind by 5 blocks asks with its own locator: it should get
	// exactly the 5 newer headers.
	peer := New(GenesisBlock("t"))
	for i := 0; i < 35; i++ {
		blk, err := c.BlockByHeight(int32(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := peer.Accept(blk); err != nil {
			t.Fatal(err)
		}
	}
	hdrs := c.HeadersAfter(peer.Locator(), 2000)
	if len(hdrs) != 5 {
		t.Fatalf("got %d headers, want 5", len(hdrs))
	}
	if hdrs[0].PrevBlock != mustTipOf(t, peer) {
		t.Error("first header must chain from the peer tip")
	}
	// Unknown locator falls back to genesis: full chain of headers.
	all := c.HeadersAfter([]chainhash.Hash{chainhash.DoubleSHA256([]byte("x"))}, 2000)
	if len(all) != 40 {
		t.Errorf("fallback headers = %d, want 40", len(all))
	}
	// Cap is respected.
	if got := c.HeadersAfter(nil, 7); len(got) != 7 {
		t.Errorf("capped headers = %d, want 7", len(got))
	}
}

func mustTipOf(t *testing.T, c *Chain) chainhash.Hash {
	t.Helper()
	h, _ := c.Tip()
	return h
}

func TestMempoolBasics(t *testing.T) {
	p := NewMempool()
	tx := makeTx(1)
	h, added := p.Add(&tx)
	if !added {
		t.Fatal("first Add should report new")
	}
	if _, again := p.Add(&tx); again {
		t.Error("second Add should report duplicate")
	}
	if !p.Have(h) {
		t.Error("Have = false after Add")
	}
	if p.Get(h) == nil {
		t.Error("Get = nil after Add")
	}
	if n := len(p.Hashes()); n != 1 {
		t.Errorf("%d pooled, want 1", n)
	}
}

func TestMempoolRemoveBlockTxs(t *testing.T) {
	p := NewMempool()
	blk := &wire.MsgBlock{Transactions: []wire.MsgTx{makeTx(1), makeTx(2), makeTx(3)}}
	for i := range blk.Transactions {
		p.Add(&blk.Transactions[i])
	}
	extra := makeTx(99)
	p.Add(&extra)
	p.RemoveBlockTxs(blk)
	if n := len(p.Hashes()); n != 1 {
		t.Errorf("%d pooled after eviction, want 1", n)
	}
	if !p.Have(extra.TxHash()) {
		t.Error("unrelated tx evicted")
	}
}

func TestCompactBlockFullMempoolReconstruction(t *testing.T) {
	c := New(GenesisBlock("t"))
	blk := nextBlock(t, c, 10, 500)
	cb := BuildCompactBlock(blk, 777)
	if len(cb.PrefilledTxs) != 1 || cb.PrefilledTxs[0].Index != 0 {
		t.Fatal("coinbase must be the sole prefilled tx")
	}
	if len(cb.ShortIDs) != 10 {
		t.Fatalf("short IDs = %d, want 10", len(cb.ShortIDs))
	}
	pool := NewMempool()
	for i := 1; i < len(blk.Transactions); i++ {
		pool.Add(&blk.Transactions[i])
	}
	res, err := ReconstructCompactBlock(cb, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("incomplete: missing %v", res.MissingIndexes)
	}
	if res.MempoolHits != 10 {
		t.Errorf("MempoolHits = %d, want 10", res.MempoolHits)
	}
	if res.Block.BlockHash() != blk.BlockHash() {
		t.Error("reconstructed block hash mismatch")
	}
}

func TestCompactBlockMissingTxRoundTrip(t *testing.T) {
	c := New(GenesisBlock("t"))
	blk := nextBlock(t, c, 6, 900)
	cb := BuildCompactBlock(blk, 1234)
	pool := NewMempool()
	// Only half the non-coinbase transactions are pooled.
	for i := 1; i < len(blk.Transactions); i += 2 {
		pool.Add(&blk.Transactions[i])
	}
	res, err := ReconstructCompactBlock(cb, pool)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("reconstruction should be incomplete")
	}
	if len(res.MissingIndexes) == 0 {
		t.Fatal("missing indexes expected")
	}
	req := &wire.MsgGetBlockTxn{BlockHash: cb.BlockHash(), Indexes: res.MissingIndexes}
	resp, err := BlockTxnFor(blk, req)
	if err != nil {
		t.Fatal(err)
	}
	full, err := CompleteReconstruction(cb, res, pool, resp)
	if err != nil {
		t.Fatal(err)
	}
	if full.BlockHash() != blk.BlockHash() {
		t.Error("completed block hash mismatch")
	}
}

// TestCompactBlockSharesOrigin checks an in-process compact block
// reconstructs to the very block it was built from, both straight from a
// full mempool and through CompleteReconstruction after a GETBLOCKTXN.
func TestCompactBlockSharesOrigin(t *testing.T) {
	c := New(GenesisBlock("t"))
	blk := nextBlock(t, c, 8, 300)
	cb := BuildCompactBlock(blk, 42)
	if cb.Origin() != blk {
		t.Fatal("BuildCompactBlock did not record its origin")
	}

	full := NewMempool()
	for i := 1; i < len(blk.Transactions); i++ {
		tx := blk.Transactions[i] // the pool holds its own copies
		full.Add(&tx)
	}
	res, err := ReconstructCompactBlock(cb, full)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Block != blk {
		t.Errorf("full mempool: got block %p (complete %v), want the origin %p", res.Block, res.Complete, blk)
	}

	half := NewMempool()
	for i := 2; i < len(blk.Transactions); i += 2 {
		tx := blk.Transactions[i]
		half.Add(&tx)
	}
	partial, err := ReconstructCompactBlock(cb, half)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Complete || len(partial.MissingIndexes) == 0 {
		t.Fatalf("half mempool: complete %v, missing %v", partial.Complete, partial.MissingIndexes)
	}
	resp, err := BlockTxnFor(blk, &wire.MsgGetBlockTxn{BlockHash: cb.BlockHash(), Indexes: partial.MissingIndexes})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CompleteReconstruction(cb, partial, half, resp)
	if err != nil {
		t.Fatal(err)
	}
	if got != blk {
		t.Errorf("after GETBLOCKTXN: got block %p, want the origin %p", got, blk)
	}
}

// TestCompactBlockDecodedCopies checks a compact block that crossed the
// wire, which has no origin, reconstructs to an equal block of its own.
func TestCompactBlockDecodedCopies(t *testing.T) {
	c := New(GenesisBlock("t"))
	blk := nextBlock(t, c, 8, 700)
	payload, err := BuildCompactBlock(blk, 43).AppendPayload(nil)
	if err != nil {
		t.Fatal(err)
	}
	var cb wire.MsgCmpctBlock
	if err := cb.Decode(bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	if cb.Origin() != nil {
		t.Fatal("a decoded compact block has an origin")
	}
	pool := NewMempool()
	for i := 1; i < len(blk.Transactions); i++ {
		pool.Add(&blk.Transactions[i])
	}
	res, err := ReconstructCompactBlock(&cb, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Block == blk {
		t.Fatalf("got block %p (complete %v), want a copy distinct from %p", res.Block, res.Complete, blk)
	}
	if !reflect.DeepEqual(res.Block, blk) {
		t.Error("the decoded compact block's copy differs from the block it was built from")
	}
}

// TestCompactBlockOriginMismatchCopies checks a compact block whose
// recorded origin differs from what it resolves to at one index
// reconstructs to a copy of what it resolved to, never the origin.
func TestCompactBlockOriginMismatchCopies(t *testing.T) {
	c := New(GenesisBlock("t"))
	blk := nextBlock(t, c, 8, 1100)
	cb := BuildCompactBlock(blk, 44)
	other := &wire.MsgBlock{Header: blk.Header, Transactions: slices.Clone(blk.Transactions)}
	other.Transactions[5] = makeTx(9999)
	cb.SetOrigin(other)

	pool := NewMempool()
	for i := 1; i < len(blk.Transactions); i++ {
		pool.Add(&blk.Transactions[i])
	}
	res, err := ReconstructCompactBlock(cb, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Block == other || res.Block == blk {
		t.Fatalf("got block %p (complete %v), want a copy (origin %p, source %p)", res.Block, res.Complete, other, blk)
	}
	if res.Block.BlockHash() != blk.BlockHash() || res.Block.Transactions[5].TxID() != blk.Transactions[5].TxID() {
		t.Error("the copy is not the block the compact block resolves to")
	}
}

func TestCompleteReconstructionWrongBlock(t *testing.T) {
	c := New(GenesisBlock("t"))
	blk := nextBlock(t, c, 2, 40)
	cb := BuildCompactBlock(blk, 5)
	pool := NewMempool()
	res, err := ReconstructCompactBlock(cb, pool)
	if err != nil {
		t.Fatal(err)
	}
	bad := &wire.MsgBlockTxn{BlockHash: chainhash.DoubleSHA256([]byte("no"))}
	if _, err := CompleteReconstruction(cb, res, pool, bad); !errors.Is(err, ErrWrongBlockTxn) {
		t.Errorf("err = %v, want ErrWrongBlockTxn", err)
	}
}

func TestBlockTxnForErrors(t *testing.T) {
	c := New(GenesisBlock("t"))
	blk := nextBlock(t, c, 2, 60)
	wrong := &wire.MsgGetBlockTxn{BlockHash: chainhash.DoubleSHA256([]byte("x"))}
	if _, err := BlockTxnFor(blk, wrong); !errors.Is(err, ErrWrongBlockTxn) {
		t.Errorf("err = %v, want ErrWrongBlockTxn", err)
	}
	oob := &wire.MsgGetBlockTxn{BlockHash: blk.BlockHash(), Indexes: []uint16{99}}
	if _, err := BlockTxnFor(blk, oob); err == nil {
		t.Error("out-of-range index: want error")
	}
}

// Property: merkle root is stable under recomputation and sensitive to any
// single-leaf change.
func TestMerkleRootSensitivityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(n uint8, flip uint8) bool {
		count := int(n%16) + 1
		leaves := make([]chainhash.Hash, count)
		for i := range leaves {
			rng.Read(leaves[i][:])
		}
		root := MerkleRoot(leaves)
		if root != MerkleRoot(leaves) {
			return false
		}
		mutated := make([]chainhash.Hash, count)
		copy(mutated, leaves)
		mutated[int(flip)%count][0] ^= 0xff
		return MerkleRoot(mutated) != root
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: compact-block reconstruction with a fully primed mempool is
// lossless for arbitrary block sizes.
func TestCompactReconstructionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := func(n uint8, nonce uint64) bool {
		c := New(GenesisBlock("q"))
		blk := &wire.MsgBlock{
			Header: wire.BlockHeader{
				Version:   4,
				PrevBlock: c.byIdx[0],
				Timestamp: 1586000600,
			},
		}
		count := int(n%24) + 1
		for i := 0; i < count; i++ {
			blk.Transactions = append(blk.Transactions, makeTx(rng.Uint32()))
		}
		blk.Header.MerkleRoot = BlockMerkleRoot(blk)
		cb := BuildCompactBlock(blk, nonce)
		pool := NewMempool()
		for i := 1; i < len(blk.Transactions); i++ {
			pool.Add(&blk.Transactions[i])
		}
		res, err := ReconstructCompactBlock(cb, pool)
		if err != nil {
			// Short-ID collisions are theoretically possible; treat as a
			// pass only if genuinely flagged as a collision.
			return errors.Is(err, ErrShortIDCollision)
		}
		return res.Complete && res.Block.BlockHash() == blk.BlockHash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMerkleRoot1000(b *testing.B) {
	leaves := make([]chainhash.Hash, 1000)
	rng := rand.New(rand.NewSource(23))
	for i := range leaves {
		rng.Read(leaves[i][:])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MerkleRoot(leaves)
	}
}

// BenchmarkBlockMerkleRoot is the merkle check of a 150-transaction
// block, the quick relay experiments' size, whose txids are memoized: no
// hashing of transactions and no allocation.
func BenchmarkBlockMerkleRoot(b *testing.B) {
	blk := &wire.MsgBlock{}
	for i := 0; i < 150; i++ {
		blk.Transactions = append(blk.Transactions, makeTx(uint32(i)))
	}
	BlockMerkleRoot(blk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BlockMerkleRoot(blk)
	}
}

// BenchmarkMempoolAddKnown adds a transaction body the pool already holds,
// the common case of relay (three in four bodies a node receives are
// duplicates): a memo read and a map probe, no allocation.
func BenchmarkMempoolAddKnown(b *testing.B) {
	pool := NewMempool()
	tx := makeTx(1)
	pool.Add(&tx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, added := pool.Add(&tx); added {
			b.Fatal("a known transaction was added again")
		}
	}
}

func BenchmarkCompactReconstruct(b *testing.B) {
	c := New(GenesisBlock("b"))
	blk := &wire.MsgBlock{Header: wire.BlockHeader{Version: 4, PrevBlock: c.byIdx[0]}}
	for i := 0; i < 200; i++ {
		blk.Transactions = append(blk.Transactions, makeTx(uint32(i)))
	}
	blk.Header.MerkleRoot = BlockMerkleRoot(blk)
	cb := BuildCompactBlock(blk, 9)
	pool := NewMempool()
	for i := 1; i < len(blk.Transactions); i++ {
		pool.Add(&blk.Transactions[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReconstructCompactBlock(cb, pool); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLocatorSingleBlock(t *testing.T) {
	c := New(GenesisBlock("solo"))
	loc := c.Locator()
	if len(loc) != 1 || loc[0] != c.byIdx[0] {
		t.Errorf("genesis-only locator = %v", loc)
	}
}

func TestLocatorExponentialSpacing(t *testing.T) {
	c := New(GenesisBlock("exp"))
	for i := 0; i < 200; i++ {
		if _, err := c.Accept(nextBlock(t, c, 0, uint32(i*7))); err != nil {
			t.Fatal(err)
		}
	}
	loc := c.Locator()
	// Far fewer entries than blocks: the walk-back doubles its stride
	// after the first ten.
	if len(loc) >= 40 {
		t.Errorf("locator has %d entries for 200 blocks; expected ~10+log2", len(loc))
	}
	// All entries must be known blocks, tip first, genesis last.
	for _, h := range loc {
		if !c.HaveBlock(h) {
			t.Fatalf("locator references unknown block %s", h)
		}
	}
}

func TestHeadersAfterEmptyLocator(t *testing.T) {
	c := New(GenesisBlock("empty-loc"))
	for i := 0; i < 3; i++ {
		if _, err := c.Accept(nextBlock(t, c, 0, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	// A nil locator falls back to genesis: all headers returned.
	hdrs := c.HeadersAfter(nil, 10)
	if len(hdrs) != 3 {
		t.Errorf("headers = %d, want 3", len(hdrs))
	}
}
