package simnet

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/asmap"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Additional simnet tests: latency models, fast-fail semantics, host
// lifecycle corners, and larger-network convergence.

func TestASLatency(t *testing.T) {
	al := asmap.NewIPAllocator(64)
	a1, err := al.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := al.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := al.Alloc(200)
	if err != nil {
		t.Fatal(err)
	}
	f := ASLatency(al, 5*time.Millisecond, 40*time.Millisecond, 100*time.Millisecond)
	if got := f(a1, a2); got != 5*time.Millisecond {
		t.Errorf("intra-AS latency = %v, want 5ms", got)
	}
	inter := f(a1, b1)
	if inter < 40*time.Millisecond || inter > 100*time.Millisecond {
		t.Errorf("inter-AS latency = %v, out of range", inter)
	}
	if f(a1, b1) != f(b1, a1) {
		t.Error("inter-AS latency not symmetric")
	}
	// Unknown addresses fall back to the inter-AS range.
	unknown := netip.MustParseAddr("203.0.113.1")
	got := f(unknown, a1)
	if got < 40*time.Millisecond || got > 100*time.Millisecond {
		t.Errorf("fallback latency = %v, out of range", got)
	}
}

func TestFastFailTiming(t *testing.T) {
	// End-to-end: a node seeded with only dead addresses sees a mix of
	// quick refusals and slow timeouts under the default 50% split.
	reg := obs.NewRegistry()
	net := New(Config{
		Seed:    5,
		Latency: ConstantLatency(10 * time.Millisecond),
		Metrics: reg,
	})
	self := addr4(10, 0, 0, 1, 8333)
	var seeds []wire.NetAddress
	for i := 0; i < 40; i++ {
		seeds = append(seeds, wire.NetAddress{
			Addr:      addr4(172, 30, 0, byte(i+1), 8333),
			Timestamp: net.Now(),
		})
	}
	h := net.AddFullNode(nodeCfg(self, seeds))
	h.Start()
	net.Scheduler().RunFor(time.Minute)
	quick := reg.Counter("simnet.dial.refused").Value()
	slow := reg.Counter("simnet.dial.timeout").Value()
	if quick == 0 || slow == 0 {
		t.Errorf("fast/slow failure split = %d/%d; both kinds expected", quick, slow)
	}
}

// TestStopClosesLinksInConnIDOrder pins the order Host.Stop tears its
// links down: each local OnDisconnect schedules follow-up events, so an
// order taken from map iteration makes same-seed runs differ between
// processes.
func TestStopClosesLinksInConnIDOrder(t *testing.T) {
	net := newTestNet(31)
	hubAddr := addr4(10, 0, 0, 1, 8333)
	var closed []node.ConnID
	hubCfg := nodeCfg(hubAddr, nil)
	hubCfg.Sink = func(ev node.Event) {
		if ev.Type == node.EvConnClose {
			closed = append(closed, ev.Conn)
		}
	}
	hub := net.AddFullNode(hubCfg)
	hub.Start()
	const peers = 12
	for i := 0; i < peers; i++ {
		net.AddFullNode(nodeCfg(addr4(10, 0, 1, byte(i+1), 8333),
			seedsOf(net.Now(), hubAddr))).Start()
	}
	net.Scheduler().RunFor(30 * time.Second)
	if _, in, _ := hub.Node().ConnCounts(); in != peers {
		t.Fatalf("precondition: hub inbound = %d, want %d", in, peers)
	}

	closed = closed[:0]
	hub.Stop()
	if len(closed) != peers {
		t.Fatalf("hub saw %d local disconnects, want %d", len(closed), peers)
	}
	if !slices.IsSorted(closed) {
		t.Errorf("local OnDisconnect order %v is not ascending ConnID", closed)
	}
}

func TestTransmitAfterCloseDropped(t *testing.T) {
	// Messages in flight when a link closes must not be delivered.
	net := newTestNet(31)
	a := addr4(10, 0, 0, 1, 8333)
	b := addr4(10, 0, 0, 2, 8333)
	hb := net.AddFullNode(nodeCfg(b, nil))
	ha := net.AddFullNode(nodeCfg(a, seedsOf(net.Now(), b)))
	hb.Start()
	ha.Start()
	net.Scheduler().RunFor(30 * time.Second)
	// Stop B and immediately run: any queued deliveries to B must be
	// dropped without panicking.
	net.Scheduler().After(0, hb.Stop)
	net.Scheduler().RunFor(10 * time.Second)
	if hb.Online() {
		t.Fatal("B still online")
	}
}

func TestSchedulerDrainBounded(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	count := 0
	var tick func()
	tick = func() {
		count++
		s.After(time.Second, tick) // infinite chain
	}
	s.After(0, tick)
	s.Drain(10)
	if count != 10 {
		t.Errorf("Drain executed %d events, want 10", count)
	}
}

func TestMediumNetworkConverges(t *testing.T) {
	// 60 nodes bootstrap from one seed and converge on a mined chain.
	if testing.Short() {
		t.Skip("medium network test")
	}
	net := newTestNet(33)
	first := addr4(10, 1, 0, 1, 8333)
	var hosts []*Host
	for i := 0; i < 60; i++ {
		self := addr4(10, 1, byte(i/250), byte(i+1), 8333)
		cfg := nodeCfg(self, nil)
		if self != first {
			cfg.SeedAddrs = seedsOf(net.Now(), first)
		}
		h := net.AddFullNode(cfg)
		h.Start()
		hosts = append(hosts, h)
	}
	net.Scheduler().RunFor(5 * time.Minute)

	// Everyone should have found peers via gossip.
	isolated := 0
	for _, h := range hosts {
		out, in, _ := h.Node().ConnCounts()
		if out+in == 0 {
			isolated++
		}
	}
	if isolated > 0 {
		t.Errorf("%d nodes isolated after bootstrap", isolated)
	}

	// Mine 3 blocks; within 2 minutes everyone converges.
	for b := 0; b < 3; b++ {
		net.Scheduler().After(0, func() {
			if _, err := hosts[0].Node().MineBlock(0); err != nil {
				t.Errorf("mine: %v", err)
			}
		})
		net.Scheduler().RunFor(2 * time.Minute)
	}
	behind := 0
	for _, h := range hosts {
		if h.Node().Chain().Height() != 3 {
			behind++
		}
	}
	if behind > 3 {
		t.Errorf("%d of 60 nodes behind after propagation window", behind)
	}
}

func TestNetworkAccessors(t *testing.T) {
	net := newTestNet(77)
	a := addr4(10, 0, 0, 1, 8333)
	if h := net.AddFullNode(nodeCfg(a, nil)); net.Host(a) != h || h.Addr() != a {
		t.Error("Host lookup inconsistent")
	}
	s := net.Scheduler()
	if s.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", s.Pending())
	}
	ran := false
	s.After(-time.Second, func() { ran = true }) // negative delay clamps to zero
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	s.RunFor(time.Millisecond)
	if !ran || s.Pending() != 0 {
		t.Errorf("after RunFor: ran = %v, Pending = %d; want true, 0", ran, s.Pending())
	}
}
