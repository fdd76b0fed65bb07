package simnet

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestCompactRelaySharesBlocks checks a block is stored once per
// simulation: after a short all-compact relay run, in which one block
// carries a transaction nobody was told about (so a GETBLOCKTXN round
// trip runs), every node holds the miner's *MsgBlock at every height, not
// a reconstructed copy of it.
func TestCompactRelaySharesBlocks(t *testing.T) {
	net := newTestNet(33)
	addrs := make([]netip.AddrPort, 5)
	hosts := make([]*Host, len(addrs))
	for i := range addrs {
		addrs[i] = addr4(10, 0, 0, byte(i+1), 8333)
		var seeds []wire.NetAddress
		if i > 0 {
			seeds = seedsOf(net.Now(), addrs[:i]...)
		}
		cfg := nodeCfg(addrs[i], seeds)
		cfg.CompactBlocks = true
		hosts[i] = net.AddFullNode(cfg)
		hosts[i].Start()
	}
	net.Scheduler().RunFor(30 * time.Second)

	const blocks = 3
	mined := make([]*wire.MsgBlock, blocks)
	for b := 0; b < blocks; b++ {
		for j := 0; j < 6; j++ {
			tx := &wire.MsgTx{
				Version: 2,
				TxIn:    []wire.TxIn{{PreviousOutPoint: wire.OutPoint{Index: uint32(10*b + j)}, Sequence: 0xffffffff}},
				TxOut:   []wire.TxOut{{Value: int64(10*b+j+1) * 100, PkScript: []byte{0x51}}},
			}
			h := hosts[j%len(hosts)]
			net.Scheduler().After(time.Duration(j)*100*time.Millisecond, func() { h.Node().SubmitTx(tx) })
		}
		net.Scheduler().RunFor(10 * time.Second)
		miner := hosts[b%len(hosts)].Node()
		net.Scheduler().After(0, func() {
			if b == 1 {
				miner.Mempool().Add(&wire.MsgTx{Version: 2, LockTime: 9, TxOut: []wire.TxOut{{Value: 1, PkScript: []byte{0x52}}}})
			}
			blk, err := miner.MineBlock(0)
			if err != nil {
				t.Errorf("mine %d: %v", b, err)
			}
			mined[b] = blk
		})
		net.Scheduler().RunFor(30 * time.Second)
	}

	for i, h := range hosts {
		c := h.Node().Chain()
		if got := c.Height(); got != blocks {
			t.Fatalf("node %d: height %d, want %d", i, got, blocks)
		}
		for b, want := range mined {
			got, err := c.BlockByHeight(int32(b + 1))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("node %d height %d: holds block %p, want the miner's %p", i, b+1, got, want)
			}
		}
	}
}
