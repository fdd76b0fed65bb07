package simnet

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestTxIDMemoMatchesRehash is the re-hash oracle for the txid memo.
// After a short relay run (compact blocks, one block carrying
// transactions nobody was told about, so a GETBLOCKTXN round trip runs),
// every transaction in every node's mempool and in every block of every
// node's chain still hashes, from its bytes, to the txid its memo holds.
// A transaction mutated after it was hashed, or a copy that kept another
// transaction's memo, fails it.
func TestTxIDMemoMatchesRehash(t *testing.T) {
	net := newTestNet(21)
	addrs := make([]netip.AddrPort, 5)
	hosts := make([]*Host, len(addrs))
	for i := range addrs {
		addrs[i] = addr4(10, 0, 0, byte(i+1), 8333)
		var seeds []wire.NetAddress
		if i > 0 {
			seeds = seedsOf(net.Now(), addrs[:i]...)
		}
		cfg := nodeCfg(addrs[i], seeds)
		cfg.CompactBlocks = i%2 == 0
		hosts[i] = net.AddFullNode(cfg)
		hosts[i].Start()
	}
	net.Scheduler().RunFor(30 * time.Second)

	txCount := uint32(0)
	submit := func(k int) {
		for j := 0; j < k; j++ {
			txCount++
			tx := &wire.MsgTx{
				Version: 2,
				TxIn:    []wire.TxIn{{PreviousOutPoint: wire.OutPoint{Index: txCount}, Sequence: 0xffffffff}},
				TxOut:   []wire.TxOut{{Value: int64(txCount) * 100, PkScript: []byte{0x51}}},
			}
			h := hosts[int(txCount)%len(hosts)]
			net.Scheduler().After(time.Duration(j)*100*time.Millisecond, func() { h.Node().SubmitTx(tx) })
		}
		net.Scheduler().RunFor(10 * time.Second)
	}
	const blocks = 3
	for b := 0; b < blocks; b++ {
		submit(8)
		miner := hosts[b%len(hosts)].Node()
		net.Scheduler().After(0, func() {
			if b == 1 {
				// Unannounced: every other node must fetch it by GETBLOCKTXN
				// or in the full block.
				miner.Mempool().Add(&wire.MsgTx{Version: 2, LockTime: 7, TxOut: []wire.TxOut{{Value: 1, PkScript: []byte{0x52}}}})
			}
			if _, err := miner.MineBlock(0); err != nil {
				t.Errorf("mine %d: %v", b, err)
			}
		})
		net.Scheduler().RunFor(30 * time.Second)
	}
	submit(5) // left in the mempools

	checked := 0
	for i, h := range hosts {
		n := h.Node()
		if got := n.Chain().Height(); got != blocks {
			t.Errorf("node %d: height %d, want %d", i, got, blocks)
		}
		for height := int32(0); height <= n.Chain().Height(); height++ {
			blk, err := n.Chain().BlockByHeight(height)
			if err != nil {
				t.Fatal(err)
			}
			for j := range blk.Transactions {
				tx := &blk.Transactions[j]
				if id, fresh := tx.TxID(), tx.TxHash(); id != fresh {
					t.Errorf("node %d block %d tx %d: TxID %s, re-hash %s", i, height, j, id, fresh)
				}
				checked++
			}
		}
		pooled := n.Mempool().Hashes()
		if len(pooled) == 0 {
			t.Errorf("node %d: empty mempool, the pool half of the oracle checks nothing", i)
		}
		for _, key := range pooled {
			tx := n.Mempool().Get(key)
			if id, fresh := tx.TxID(), tx.TxHash(); id != key || fresh != key {
				t.Errorf("node %d: pooled under %s, TxID %s, re-hash %s", i, key, id, fresh)
			}
			checked++
		}
	}
	if checked < len(hosts)*(blocks+8*blocks+1) {
		t.Errorf("checked %d transactions, too few for %d nodes and %d blocks", checked, len(hosts), blocks)
	}
}
