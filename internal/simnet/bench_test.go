package simnet

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// BenchmarkSchedulerThroughput measures raw event dispatch.
func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler(time.Unix(0, 0))
	b.ReportAllocs()
	b.ResetTimer()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			s.After(time.Millisecond, tick)
		}
	}
	s.After(0, tick)
	s.RunUntil(time.Unix(0, 0).Add(time.Duration(b.N+1) * time.Millisecond))
	if count < b.N {
		b.Fatalf("executed %d of %d", count, b.N)
	}
}

// BenchmarkSchedulerDepth measures event dispatch at the queue depth a
// relay run actually holds (simnet.sched_depth_max is ~820 on quick
// fig10): 800 chains each reschedule themselves a pseudo-random 1-100 ms
// ahead, so every pop sifts through ten heap levels and pushes land all
// over the heap. BenchmarkSchedulerThroughput above runs at depth 1.
func BenchmarkSchedulerDepth(b *testing.B) {
	const depth = 800
	s := NewScheduler(time.Unix(0, 0))
	x := uint64(88172645463325252) // xorshift64
	var tick func()
	tick = func() {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s.After(time.Duration(1+x%100)*time.Millisecond, tick)
	}
	for i := 0; i < depth; i++ {
		s.After(time.Duration(i)*time.Microsecond, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Drain(b.N)
	if s.Pending() != depth {
		b.Fatalf("%d events pending, want %d", s.Pending(), depth)
	}
}

// BenchmarkTransmitDeliver measures one message through the simulated
// transport between two full-node hosts: Host.Transmit, the delivery
// event, Node.OnMessage, the pump event that consumes it. The message is
// a preallocated unsolicited PONG, which the receiver drops without
// allocating, so allocs/op is simnet's own and is held at zero.
func BenchmarkTransmitDeliver(b *testing.B) {
	net, ha, _, l := quietPair(b, 45)
	pong := &wire.MsgPong{Nonce: 7}
	sched := net.Scheduler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ha.Transmit(l.id, pong, 0)
		sched.RunFor(20 * time.Millisecond)
	}
}

// BenchmarkSmallNetworkMinute measures a 20-node network advancing one
// virtual minute with block production.
func BenchmarkSmallNetworkMinute(b *testing.B) {
	net := newTestNet(99)
	first := addr4(10, 4, 0, 1, 8333)
	var hosts []*Host
	for i := 0; i < 20; i++ {
		self := addr4(10, 4, 0, byte(i+1), 8333)
		cfg := nodeCfg(self, nil)
		if self != first {
			cfg.SeedAddrs = seedsOf(net.Now(), first)
		}
		h := net.AddFullNode(cfg)
		h.Start()
		hosts = append(hosts, h)
	}
	net.Scheduler().RunFor(2 * time.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Scheduler().After(0, func() {
			_, _ = hosts[i%len(hosts)].Node().MineBlock(0)
		})
		net.Scheduler().RunFor(time.Minute)
	}
}
