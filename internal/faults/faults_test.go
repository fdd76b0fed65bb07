package faults

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

var testGenesis = chain.GenesisBlock("faults-test")

func addr4(a, b, c, d byte, port uint16) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{a, b, c, d}), port)
}

// seedsOf builds a seed list for every address except self.
func seedsOf(now time.Time, self netip.AddrPort, addrs []netip.AddrPort) []wire.NetAddress {
	var out []wire.NetAddress
	for _, a := range addrs {
		if a == self {
			continue
		}
		out = append(out, wire.NetAddress{
			Addr: a, Services: wire.SFNodeNetwork, Timestamp: now,
		})
	}
	return out
}

func nodeCfg(self netip.AddrPort, seeds []wire.NetAddress) node.Config {
	return node.Config{
		Self:      wire.NetAddress{Addr: self, Services: wire.SFNodeNetwork},
		Reachable: true,
		Genesis:   testGenesis,
		SeedAddrs: seeds,
	}
}

// buildMesh starts n full nodes that all know each other.
func buildMesh(net *simnet.Network, n int) []netip.AddrPort {
	return buildMeteredMesh(net, n, nil)
}

// buildMeteredMesh is buildMesh with every node counting into reg.
func buildMeteredMesh(net *simnet.Network, n int, reg *obs.Registry) []netip.AddrPort {
	addrs := make([]netip.AddrPort, n)
	for i := range addrs {
		addrs[i] = addr4(10, 0, byte(i>>8), byte(i), 8333)
	}
	for _, a := range addrs {
		cfg := nodeCfg(a, seedsOf(net.Now(), a, addrs))
		cfg.Metrics = reg
		net.AddFullNode(cfg).Start()
	}
	return addrs
}

func TestPartitionBlocksAndHeals(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 1})
	reg := obs.NewRegistry()
	inj := New(net, Config{Seed: 1, Metrics: reg})
	addrs := buildMesh(net, 6)

	inj.Partition(addrs[:3], addrs[3:])
	net.Scheduler().RunFor(3 * time.Minute)

	// No connection may span the partition.
	for _, a := range addrs[:3] {
		n := net.Host(a).Node()
		for _, peer := range n.PeerAddrs(0) {
			for _, b := range addrs[3:] {
				if peer == b {
					t.Fatalf("connection %v-%v spans the partition", a, b)
				}
			}
		}
	}
	if got := reg.Counter("faults.dial.blocked").Value(); got == 0 {
		t.Error("partition never blocked a dial")
	}

	inj.Heal()
	net.Scheduler().RunFor(10 * time.Minute)
	crossCount := 0
	for _, a := range addrs[:3] {
		for _, peer := range net.Host(a).Node().PeerAddrs(0) {
			for _, b := range addrs[3:] {
				if peer == b {
					crossCount++
				}
			}
		}
	}
	if crossCount == 0 {
		t.Error("no cross-partition connection formed after heal")
	}
}

func TestDropProfileLosesMessages(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 2})
	reg := obs.NewRegistry()
	New(net, Config{Seed: 2, Metrics: reg, Default: Profile{Drop: 0.3}})
	buildMesh(net, 4)
	net.Scheduler().RunFor(5 * time.Minute)
	if got := reg.Counter("faults.transmit.dropped").Value(); got == 0 {
		t.Error("30% drop profile never dropped a message")
	}
}

func TestBlackholeSilencesHost(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 4})
	reg := obs.NewRegistry()
	inj := New(net, Config{Seed: 4, Metrics: reg})
	addrs := buildMesh(net, 4)
	net.Scheduler().RunFor(2 * time.Minute)

	victim := addrs[0]
	inj.Blackhole(victim.Addr())
	before := reg.Counter("faults.transmit.blocked").Value()
	net.Scheduler().RunFor(5 * time.Minute)
	if reg.Counter("faults.transmit.blocked").Value() == before {
		t.Error("blackholed host's traffic was not blocked")
	}
	inj.Restore(victim.Addr())
}

func TestScheduleCrashAndPresenceMatrix(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 5})
	reg := obs.NewRegistry()
	inj := New(net, Config{Seed: 5, Metrics: reg})
	addrs := buildMesh(net, 3)

	inj.ScheduleCrash(addrs[1], 2*time.Minute, 3*time.Minute)
	sched := net.Scheduler()

	sched.RunFor(3 * time.Minute) // inside the outage
	if net.Host(addrs[1]).Online() {
		t.Fatal("host still online during scheduled outage")
	}
	sched.RunFor(3 * time.Minute) // past the restart
	if !net.Host(addrs[1]).Online() {
		t.Fatal("host did not restart after outage")
	}
	if reg.Counter("faults.crash").Value() != 1 || reg.Counter("faults.restart").Value() != 1 {
		t.Errorf("crash/restart counters = %d/%d, want 1/1",
			reg.Counter("faults.crash").Value(), reg.Counter("faults.restart").Value())
	}

	m := inj.PresenceMatrix(time.Minute)
	if m.Rows() != 1 {
		t.Fatalf("matrix rows = %d, want 1 (only crashed hosts are tracked)", m.Rows())
	}
	ones, cols := m.RowOnes(0), m.Cols()
	if ones == 0 || ones == cols {
		t.Errorf("presence row ones = %d of %d, want a partial outage", ones, cols)
	}
}

func TestCrashWaveStaggers(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 6})
	inj := New(net, Config{Seed: 6})
	addrs := buildMesh(net, 5)

	inj.CrashWave(addrs[1:4], time.Minute, 2*time.Minute, 30*time.Second)
	net.Scheduler().RunFor(90 * time.Second)
	// At t=90s: addrs[1] (t=60s) down, addrs[2] (t=90s) down, addrs[3]
	// (t=120s) still up.
	if net.Host(addrs[1]).Online() || net.Host(addrs[2]).Online() {
		t.Error("first wave members still online")
	}
	if !net.Host(addrs[3]).Online() {
		t.Error("staggered member crashed early")
	}
	net.Scheduler().RunFor(5 * time.Minute)
	for _, a := range addrs {
		if !net.Host(a).Online() {
			t.Errorf("host %v never restarted", a)
		}
	}
}

func TestDisabledInjectorIsTransparent(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 8})
	tracer := obs.NewTracer(obs.DefaultTraceCapacity, net.Now)
	inj := New(net, Config{Seed: 8, Tracer: tracer, Default: Profile{Drop: 1, DialFail: 1}})
	inj.SetEnabled(false)
	addrs := buildMesh(net, 2)
	net.Scheduler().RunFor(time.Minute)
	if !net.Host(addrs[0]).Node().AddrMan().InTried(addrs[1]) {
		t.Error("disabled injector still interfered with the handshake")
	}
	if len(tracer.Events()) != 0 {
		t.Errorf("disabled injector recorded %d events", len(tracer.Events()))
	}
}
