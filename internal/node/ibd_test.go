package node

import (
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/wire"
)

// Direct unit tests for the initial-block-download flow and the
// supporting accessors, driven through the fake environment.

// buildDonorChain mines `blocks` on an isolated node and returns it.
func buildDonorChain(t *testing.T, blocks int) *Node {
	t.Helper()
	env := newFakeEnv()
	donor := New(testConfig(mkAddr(10, 0, 0, 9)), env)
	donor.Start()
	for i := 0; i < blocks; i++ {
		if _, err := donor.MineBlock(0); err != nil {
			t.Fatal(err)
		}
	}
	return donor
}

func TestIBDThroughHeadersAndGetData(t *testing.T) {
	donor := buildDonorChain(t, 5)
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()

	var syncDone bool
	n.cfg.Sink = func(ev Event) {
		if ev.Type == EvSyncDone {
			syncDone = true
		}
	}

	// Handshake with a peer that claims height 5.
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 5)

	// The node must have asked for headers.
	var gh *wire.MsgGetHeaders
	for _, m := range env.transmitsTo(1) {
		if g, ok := m.(*wire.MsgGetHeaders); ok {
			gh = g
		}
	}
	if gh == nil {
		t.Fatal("no GETHEADERS after handshaking with a taller peer")
	}

	// Serve headers from the donor chain and then the bodies, simulating
	// the remote peer.
	hdrs := donor.Chain().HeadersAfter(gh.BlockLocatorHashes, 2000)
	if len(hdrs) != 5 {
		t.Fatalf("donor offered %d headers, want 5", len(hdrs))
	}
	n.OnMessage(1, &wire.MsgHeaders{Headers: hdrs})
	env.run(time.Second)

	// The node must have requested block bodies.
	requested := map[string]bool{}
	for _, m := range env.transmitsTo(1) {
		if gd, ok := m.(*wire.MsgGetData); ok {
			for _, iv := range gd.InvList {
				if iv.Type == wire.InvTypeBlock {
					requested[iv.Hash.String()] = true
				}
			}
		}
	}
	if len(requested) != 5 {
		t.Fatalf("requested %d blocks, want 5", len(requested))
	}
	// Deliver them in height order.
	for h := int32(1); h <= 5; h++ {
		blk, err := donor.Chain().BlockByHeight(h)
		if err != nil {
			t.Fatal(err)
		}
		n.OnMessage(1, blk)
	}
	// One more header round returns empty, completing IBD.
	env.run(time.Second)
	n.OnMessage(1, &wire.MsgHeaders{})
	env.run(time.Second)

	if got := n.Chain().Height(); got != 5 {
		t.Fatalf("height = %d, want 5", got)
	}
	if !syncDone {
		t.Error("EvSyncDone not emitted")
	}
	if !n.IsSynced() {
		t.Error("IsSynced = false after IBD")
	}
}

func TestHandleBlockUnsolicited(t *testing.T) {
	donor := buildDonorChain(t, 1)
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)
	blk, err := donor.Chain().BlockByHeight(1)
	if err != nil {
		t.Fatal(err)
	}
	n.OnMessage(1, blk)
	env.run(time.Second)
	if n.Chain().Height() != 1 {
		t.Error("unsolicited valid block not accepted")
	}
	// A second delivery is a no-op.
	n.OnMessage(1, blk)
	env.run(time.Second)
	if n.Chain().Height() != 1 {
		t.Error("duplicate block changed the chain")
	}
}

func TestOrphanBlockTriggersHeaderSync(t *testing.T) {
	donor := buildDonorChain(t, 3)
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)
	before := countGetHeaders(env, 1)
	// Deliver block at height 3 whose parent (height 2) is unknown.
	blk, err := donor.Chain().BlockByHeight(3)
	if err != nil {
		t.Fatal(err)
	}
	n.OnMessage(1, blk)
	env.run(time.Second)
	if n.Chain().Height() != 0 {
		t.Error("orphan extended the chain")
	}
	if countGetHeaders(env, 1) <= before {
		t.Error("orphan did not trigger a header sync")
	}
}

func countGetHeaders(env *fakeEnv, conn ConnID) int {
	c := 0
	for _, m := range env.transmitsTo(conn) {
		if _, ok := m.(*wire.MsgGetHeaders); ok {
			c++
		}
	}
	return c
}

func TestSubmitTxDuplicate(t *testing.T) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	tx := makeSpendTx(41)
	h1 := n.SubmitTx(&tx)
	h2 := n.SubmitTx(&tx) // duplicate: no second announcement
	if h1 != h2 {
		t.Error("hashes differ for the same tx")
	}
	if k := len(n.Mempool().Hashes()); k != 1 {
		t.Errorf("mempool size = %d, want 1", k)
	}
}

func TestHandleGetBlockTxnUnknownBlock(t *testing.T) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)
	req := &wire.MsgGetBlockTxn{
		BlockHash: chain.GenesisBlock("elsewhere").BlockHash(),
		Indexes:   []uint16{0},
	}
	n.OnMessage(1, req)
	env.run(time.Second)
	var nf *wire.MsgNotFound
	for _, m := range env.transmitsTo(1) {
		if m2, ok := m.(*wire.MsgNotFound); ok {
			nf = m2
		}
	}
	if nf == nil {
		t.Error("GETBLOCKTXN for an unknown block not answered with NOTFOUND")
	}
}

func TestAccessors(t *testing.T) {
	env := newFakeEnv()
	self := mkAddr(10, 0, 0, 1)
	n := New(testConfig(self), env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)
	p := n.peerByConn(1)
	if p.addr != mkAddr(10, 0, 0, 2) || p.dir != Inbound || !p.handshook {
		t.Error("peer state inconsistent after handshake")
	}
	for _, d := range []Direction{Outbound, Inbound, Feeler, Direction(0)} {
		if d.String() == "" {
			t.Error("empty direction string")
		}
	}
}
