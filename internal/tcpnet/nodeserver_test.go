package tcpnet

import (
	"context"
	"fmt"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/crawler"
	"repro/internal/node"
	"repro/internal/wire"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// newNodeServer starts a full node over loopback; sink, when non-nil,
// receives its events.
func newNodeServer(t *testing.T, genesis *wire.MsgBlock, seeds []wire.NetAddress, sink node.EventSink) *NodeServer {
	t.Helper()
	cfg := node.Config{
		Reachable: true,
		Genesis:   genesis,
		SeedAddrs: seeds,
		Sink:      sink,
	}
	s, err := NewNodeServer(cfg, wire.SimNet, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Logf("close: %v", err)
		}
	})
	return s
}

// connectedPair starts node a, then node b seeded with a's address, and
// returns once both ends of b's outbound connection have completed the
// handshake. A connection counts in ConnCounts from the dial on, a few
// milliseconds before that, and a node announces nothing to a peer it has
// not shaken hands with.
func connectedPair(t *testing.T) (a, b *NodeServer) {
	t.Helper()
	genesis := chain.GenesisBlock("tcp-node-test")
	var handshakes atomic.Int32
	sink := node.SinkFunc(func(ev node.Event) {
		if ev.Type == node.EvHandshake {
			handshakes.Add(1)
		}
	})
	a = newNodeServer(t, genesis, nil, sink)
	b = newNodeServer(t, genesis, []wire.NetAddress{{
		Addr: a.Addr(), Services: wire.SFNodeNetwork, Timestamp: time.Now(),
	}}, sink)
	// a learns b's address only from b's self-advertisement after the
	// handshake, so the first two events are the two ends of b's dial.
	waitFor(t, 10*time.Second, "handshake at both ends", func() bool {
		return handshakes.Load() >= 2
	})
	return a, b
}

func TestNodeServerHandshakeOverTCP(t *testing.T) {
	a, b := connectedPair(t)
	var out, in int
	b.Do(func(n *node.Node) { out, _, _ = n.ConnCounts() })
	a.Do(func(n *node.Node) { _, in, _ = n.ConnCounts() })
	if out != 1 || in != 1 {
		t.Errorf("outbound at B = %d, inbound at A = %d, want 1 and 1", out, in)
	}
	// B must have promoted A into its tried table.
	var tried bool
	b.Do(func(n *node.Node) { tried = n.AddrMan().InTried(a.Addr()) })
	if !tried {
		t.Error("peer not promoted to tried after real-TCP handshake")
	}
}

func TestNodeServerBlockPropagationOverTCP(t *testing.T) {
	a, b := connectedPair(t)
	a.Do(func(n *node.Node) {
		if _, err := n.MineBlock(0); err != nil {
			t.Errorf("mine: %v", err)
		}
	})
	waitFor(t, 10*time.Second, "block propagation", func() bool {
		var h int32
		b.Do(func(n *node.Node) { h = n.Chain().Height() })
		return h == 1
	})
}

// TestNodeServerTxPropagationOverTCP relays a transaction from a hub to
// two connected peers. The hub announces it with one INV shared by both
// connections, so under -race this also covers two outbox writers
// encoding the same message at once.
func TestNodeServerTxPropagationOverTCP(t *testing.T) {
	genesis := chain.GenesisBlock("tcp-node-test")
	var inbound atomic.Int32
	hub := newNodeServer(t, genesis, nil, node.SinkFunc(func(ev node.Event) {
		if ev.Type == node.EvHandshake && ev.Dir == node.Inbound {
			inbound.Add(1)
		}
	}))
	seed := []wire.NetAddress{{Addr: hub.Addr(), Services: wire.SFNodeNetwork, Timestamp: time.Now()}}
	peers := []*NodeServer{newNodeServer(t, genesis, seed, nil), newNodeServer(t, genesis, seed, nil)}
	waitFor(t, 10*time.Second, "both peers handshaken at the hub", func() bool {
		return inbound.Load() >= 2
	})
	tx := &wire.MsgTx{
		Version: 2,
		TxIn:    []wire.TxIn{{Sequence: 7, SignatureScript: []byte{9}}},
		TxOut:   []wire.TxOut{{Value: 123, PkScript: []byte{0x51}}},
	}
	h := tx.TxHash()
	hub.Do(func(n *node.Node) { n.SubmitTx(tx) })
	for i, p := range peers {
		waitFor(t, 10*time.Second, fmt.Sprintf("tx propagation to peer %d", i), func() bool {
			var have bool
			p.Do(func(n *node.Node) { have = n.Mempool().Have(h) })
			return have
		})
	}
}

func TestNodeServerAnswersCrawler(t *testing.T) {
	// The real crawler (Algorithm 1) must be able to drain a live
	// NodeServer's address tables over TCP.
	genesis := chain.GenesisBlock("tcp-node-test")
	seeds := make([]wire.NetAddress, 30)
	for i := range seeds {
		seeds[i] = wire.NetAddress{
			Addr: netip.AddrPortFrom(
				netip.AddrFrom4([4]byte{172, 18, 0, byte(i + 1)}), 8333),
			Services:  wire.SFNodeNetwork,
			Timestamp: time.Now(),
		}
	}
	s := newNodeServer(t, genesis, seeds, nil)
	c := crawler.New(crawler.Config{}, &Dialer{})
	snap, err := c.Crawl(context.Background(), time.Now(), []netip.AddrPort{s.Addr()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := snap.Reports[s.Addr()]
	if rep == nil || !rep.Connected {
		t.Fatal("crawler could not connect to the live node")
	}
	if !rep.SentOwnAddr {
		t.Error("node did not self-advertise in its ADDR response")
	}
	if rep.TotalSent < 5 {
		t.Errorf("crawler drained only %d addresses", rep.TotalSent)
	}
}
