package node

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// BenchmarkPumpThroughput measures the round-robin message pump: inbound
// pings answered with pongs across 20 peers. The env discards transmits
// at Transmit time and feeds each PONG back to the node's free list (the
// RecycleOutbound contract), and the inbound ping is reused with a
// mutated nonce, so the steady-state pump must run allocation-free — CI
// enforces 0 allocs/op.
func BenchmarkPumpThroughput(b *testing.B) {
	benchPump(b, 20, func(i int) ConnID { return ConnID(i%20 + 1) })
}

// BenchmarkPumpSparse is the same ping-pong with 100 connections of which
// one, in the last slot, ever has work: a loop must cost what it services,
// not what is connected, so this stays beside BenchmarkPumpThroughput's
// ns/op however many idle slots there are.
func BenchmarkPumpSparse(b *testing.B) {
	benchPump(b, 100, func(int) ConnID { return 100 })
}

// benchPump handshakes the given number of inbound peers and times one
// ping in, one pong out per iteration on the connection target names.
func benchPump(b *testing.B, peers int, target func(i int) ConnID) {
	env, n := handshookNode(b, peers)
	env.discard = true
	env.recycle = n.RecycleOutbound
	ping := &wire.MsgPing{}
	// Warm the free list and queue capacities out of the timed region.
	for i := 0; i < 100; i++ {
		ping.Nonce = uint64(i)
		n.OnMessage(target(i), ping)
		env.run(10 * time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ping.Nonce = uint64(i)
		n.OnMessage(target(i), ping)
		env.run(10 * time.Millisecond)
	}
}

// BenchmarkPolicyDispatch measures the relay hot path with an empty
// policy set (testConfig sets none): Config.Policies is compiled once in
// New, so a node with no policies must pay nothing per message over the
// pre-policy baseline. Each iteration submits a fresh local transaction
// and drains its one shared INV to 8 handshook peers; with CI's zero
// alloc slack, a per-peer allocation fails the build. A fresh node takes
// over every dispatchPerNode iterations: one kept for all of b.N would
// ping its silent peers after pingInterval, evict them at the stall
// timeout and go on timing fan-outs to nobody.
func BenchmarkPolicyDispatch(b *testing.B) {
	const dispatchPerNode = 4096 // 41 s of virtual time at 10 ms a step
	var env *fakeEnv
	var n *Node
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%dispatchPerNode == 0 {
			b.StopTimer()
			env, n = handshookNode(b, 8)
			env.discard = true
			b.StartTimer()
		}
		n.SubmitTx(&wire.MsgTx{
			Version: 2,
			TxIn:    []wire.TxIn{{Sequence: uint32(i)}},
			TxOut:   []wire.TxOut{{Value: int64(i) + 1, PkScript: []byte{0x51}}},
		})
		env.run(10 * time.Millisecond)
	}
}

// handshookNode starts a node whose inbound peers on conns 1..peers have
// completed the handshake.
func handshookNode(tb testing.TB, peers int) (*fakeEnv, *Node) {
	tb.Helper()
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	for i := 0; i < peers; i++ {
		conn := ConnID(i + 1)
		if !n.OnInbound(mkAddr(10, 0, 1, byte(i+1)), conn) {
			tb.Fatal("inbound refused")
		}
		n.OnMessage(conn, &wire.MsgVersion{Timestamp: env.Now()})
		n.OnMessage(conn, &wire.MsgVerAck{})
	}
	env.run(time.Second)
	return env, n
}

// BenchmarkHandleAddr measures ADDR ingestion into addrman.
func BenchmarkHandleAddr(b *testing.B) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	if !n.OnInbound(mkAddr(10, 0, 0, 2), 1) {
		b.Fatal("inbound refused")
	}
	n.OnMessage(1, &wire.MsgVersion{Timestamp: env.Now()})
	n.OnMessage(1, &wire.MsgVerAck{})
	env.run(time.Second)
	batch := make([]wire.NetAddress, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			v := i*100 + j
			batch[j] = wire.NetAddress{
				Addr:      mkAddr(byte(v>>16)+1, byte(v>>8), byte(v), 1),
				Timestamp: env.Now(),
			}
		}
		n.OnMessage(1, &wire.MsgAddr{AddrList: batch})
		env.run(10 * time.Millisecond)
	}
}

// BenchmarkNodeNew measures one node birth as a churned simulation pays
// it on every Host.Start: New (maps, policy resolution, the address
// manager) plus Start seeding addrman with 8 addresses. B/op is the guard
// against table-sized allocations coming back (2.5 MiB per node before
// addrman's slot index).
func BenchmarkNodeNew(b *testing.B) {
	env := newFakeEnv()
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	for i := 0; i < 8; i++ {
		cfg.SeedAddrs = append(cfg.SeedAddrs, wire.NetAddress{
			Addr: mkAddr(10, byte(i+1), 0, 1), Timestamp: env.Now(),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(cfg, env).Start()
		env.q = env.q[:0] // drop the timers Start scheduled
	}
}
