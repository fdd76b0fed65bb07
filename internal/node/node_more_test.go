package node

import (
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/wire"
)

// Additional node tests: relay-policy corners, GETADDR chunking, compact
// block reconstruction paths, and the service-time model.

func TestDuplicateVersionIgnored(t *testing.T) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)
	before := len(env.transmitsTo(1))
	n.OnMessage(1, &wire.MsgVersion{Timestamp: env.Now(), StartHeight: 50})
	env.run(time.Second)
	p := n.peerByConn(1)
	if p.startHeight == 50 {
		t.Error("duplicate VERSION overwrote peer state")
	}
	if got := len(env.transmitsTo(1)); got != before {
		t.Error("duplicate VERSION triggered responses")
	}
}

func TestGetAddrResponseChunking(t *testing.T) {
	// A full GETADDR sample (1000 addresses) plus the prepended self
	// address is one more than an ADDR message may carry, so it must
	// arrive in two messages, each within the wire cap.
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	// The sample is 23% of the table: 1000 needs 4348 known addresses.
	// One /16 per address and one source per batch spread them over the
	// new table's buckets.
	for src := 0; src < 100; src++ {
		batch := make([]wire.NetAddress, 60)
		for i := range batch {
			group := src*len(batch) + i
			batch[i] = wire.NetAddress{
				Addr:      mkAddr(20+byte(group/250), byte(group%250), 0, 1),
				Timestamp: env.Now(),
			}
		}
		n.AddrMan().Add(batch, mkAddr(100, byte(src), 0, 1).Addr())
	}
	if size := n.AddrMan().Size(); size < 4348 {
		t.Fatalf("addrman holds %d addresses, the test needs 4348", size)
	}
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)
	n.OnMessage(1, &wire.MsgGetAddr{})
	env.run(2 * time.Second)
	var chunks, total int
	for _, m := range env.transmitsTo(1) {
		if am, ok := m.(*wire.MsgAddr); ok {
			chunks++
			total += len(am.AddrList)
			if len(am.AddrList) > wire.MaxAddrPerMsg {
				t.Fatalf("chunk of %d exceeds wire cap", len(am.AddrList))
			}
		}
	}
	if chunks != 2 || total != wire.MaxAddrPerMsg+1 {
		t.Errorf("chunks=%d total=%d, want 2/%d", chunks, total, wire.MaxAddrPerMsg+1)
	}
}

func TestBlockBodyServedOnGetData(t *testing.T) {
	n, env := minedChain(t, 1)
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)
	blk, err := n.Chain().BlockByHeight(1)
	if err != nil {
		t.Fatal(err)
	}
	gd := &wire.MsgGetData{}
	gd.InvList = []wire.InvVect{{Type: wire.InvTypeBlock, Hash: blk.BlockHash()}}
	n.OnMessage(1, gd)
	env.run(time.Second)
	var served *wire.MsgBlock
	for _, m := range env.transmitsTo(1) {
		if b, ok := m.(*wire.MsgBlock); ok {
			served = b
		}
	}
	if served == nil || served.BlockHash() != blk.BlockHash() {
		t.Error("block body not served")
	}
}

func TestCompactBlockAnnouncement(t *testing.T) {
	env := newFakeEnv()
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.CompactBlocks = true
	n := New(cfg, env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)
	// Peer negotiates high-bandwidth compact relay.
	n.OnMessage(1, &wire.MsgSendCmpct{Announce: true, Version: 1})
	env.run(time.Second)
	if _, err := n.MineBlock(0); err != nil {
		t.Fatal(err)
	}
	env.run(time.Second)
	var sawCmpct bool
	for _, m := range env.transmitsTo(1) {
		if _, ok := m.(*wire.MsgCmpctBlock); ok {
			sawCmpct = true
		}
	}
	if !sawCmpct {
		t.Error("block not announced via CMPCTBLOCK after negotiation")
	}
}

func TestCmpctBlockReconstructionFromMempool(t *testing.T) {
	env := newFakeEnv()
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.CompactBlocks = true
	n := New(cfg, env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)

	// Build the block remotely: a second node mines with a tx our node
	// already pooled.
	env2 := newFakeEnv()
	miner := New(testConfig(mkAddr(10, 0, 0, 9)), env2)
	miner.Start()
	tx := makeSpendTx(77)
	miner.Mempool().Add(&tx)
	n.Mempool().Add(&tx)
	blk, err := miner.MineBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	cb := chain.BuildCompactBlock(blk, 99)
	n.OnMessage(1, cb)
	env.run(time.Second)
	if n.Chain().Height() != 1 {
		t.Fatalf("height = %d, want 1 (compact reconstruction failed)", n.Chain().Height())
	}
}

func TestCmpctBlockMissingTxTriggersGetBlockTxn(t *testing.T) {
	env := newFakeEnv()
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.CompactBlocks = true
	n := New(cfg, env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)

	env2 := newFakeEnv()
	miner := New(testConfig(mkAddr(10, 0, 0, 9)), env2)
	miner.Start()
	tx := makeSpendTx(88)
	miner.Mempool().Add(&tx) // our node does NOT have it
	blk, err := miner.MineBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	cb := chain.BuildCompactBlock(blk, 7)
	n.OnMessage(1, cb)
	env.run(time.Second)
	var req *wire.MsgGetBlockTxn
	for _, m := range env.transmitsTo(1) {
		if g, ok := m.(*wire.MsgGetBlockTxn); ok {
			req = g
		}
	}
	if req == nil {
		t.Fatal("missing tx did not trigger GETBLOCKTXN")
	}
	// Answer it and confirm the block completes.
	resp, err := chain.BlockTxnFor(blk, req)
	if err != nil {
		t.Fatal(err)
	}
	n.OnMessage(1, resp)
	env.run(time.Second)
	if n.Chain().Height() != 1 {
		t.Errorf("height = %d, want 1 after BLOCKTXN", n.Chain().Height())
	}
}

// makeSpendTx builds a distinct non-coinbase transaction.
func makeSpendTx(seed byte) wire.MsgTx {
	return wire.MsgTx{
		Version: 2,
		TxIn: []wire.TxIn{{
			PreviousOutPoint: wire.OutPoint{Index: uint32(seed)},
			SignatureScript:  []byte{seed, seed + 1},
			Sequence:         0xfffffffe,
		}},
		TxOut: []wire.TxOut{{Value: int64(seed) * 100, PkScript: []byte{0x51}}},
	}
}

func TestSizeEstimateOrdering(t *testing.T) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	blk := &wire.MsgBlock{Header: wire.BlockHeader{Version: 4}}
	inv := &wire.MsgInv{}
	inv.InvList = []wire.InvVect{{Type: wire.InvTypeBlock}}
	// A full block must be estimated far larger than an INV, and at
	// least the synthetic block size hint.
	if n.sizeEstimate(blk) < blockSizeHint {
		t.Error("block size below the hint")
	}
	if n.sizeEstimate(inv) >= n.sizeEstimate(blk) {
		t.Error("INV estimated larger than a block")
	}
	cb := &wire.MsgCmpctBlock{ShortIDs: make([]wire.ShortID, 100)}
	if n.sizeEstimate(cb) >= n.sizeEstimate(blk) {
		t.Error("compact block estimated larger than a full block")
	}
	if n.sendTime(blk) <= n.sendTime(inv) {
		t.Error("block send time not above INV send time")
	}
}

func TestPumpDrainsBacklogEventually(t *testing.T) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)
	// Flood the node with pings; every one must eventually be ponged,
	// one per pump loop.
	const pings = 200
	for i := 0; i < pings; i++ {
		n.OnMessage(1, &wire.MsgPing{Nonce: uint64(i)})
	}
	env.run(time.Minute)
	pongs := 0
	for _, m := range env.transmitsTo(1) {
		if _, ok := m.(*wire.MsgPong); ok {
			pongs++
		}
	}
	if pongs != pings {
		t.Errorf("pongs = %d, want %d", pongs, pings)
	}
	if n.hasPendingWork() {
		t.Error("pending work remains after drain")
	}
}

func TestPeerAddrsFiltering(t *testing.T) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 1, 1), 0)
	completeHandshake(t, n, env, 2, mkAddr(10, 0, 1, 2), 0)
	if got := len(n.PeerAddrs(0)); got != 2 {
		t.Errorf("all peers = %d, want 2", got)
	}
	if got := len(n.PeerAddrs(Inbound)); got != 2 {
		t.Errorf("inbound peers = %d, want 2", got)
	}
	if got := len(n.PeerAddrs(Outbound)); got != 0 {
		t.Errorf("outbound peers = %d, want 0", got)
	}
}

func TestAnnounceSkipsKnowingPeers(t *testing.T) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 1, 1), 0)
	blk, err := n.MineBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	env.run(time.Second)
	count := func() int {
		c := 0
		for _, m := range env.transmitsTo(1) {
			if iv, ok := m.(*wire.MsgInv); ok {
				for _, v := range iv.InvList {
					if v.Hash == blk.BlockHash() {
						c++
					}
				}
			}
		}
		return c
	}
	first := count()
	if first != 1 {
		t.Fatalf("announcements = %d, want 1", first)
	}
	// Re-announcing (e.g. via a second acceptAndRelay path) must not
	// duplicate: the peer is marked as knowing the block.
	n.announceBlock(blk, 1, 0, env.Now())
	env.run(time.Second)
	if got := count(); got != first {
		t.Errorf("announcements after re-announce = %d, want %d", got, first)
	}
}

func TestNegativeMaxFeelersDisablesFeelers(t *testing.T) {
	env := newFakeEnv()
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.MaxOutbound = -1
	cfg.MaxFeelers = -1
	cfg.SeedAddrs = []wire.NetAddress{{Addr: mkAddr(10, 0, 0, 2), Timestamp: env.Now()}}
	n := New(cfg, env)
	n.Start()
	env.run(2 * feelerInterval)
	if len(env.dials) != 0 {
		t.Errorf("dials = %d, want 0 with both loops disabled", len(env.dials))
	}
}
