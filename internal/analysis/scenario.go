package analysis

import (
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/node"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// This file holds the pieces the message-level runners build their
// networks and drivers from. A runner passes its one rng to every helper,
// so the helpers' draws interleave on a single stream: a runner's output
// is fixed by its seed and by the order of its calls, and a change to the
// draws of one helper moves every later draw of every runner using it.

// simLatency is the link latency of the propagation and connection
// networks.
var simLatency = simnet.HashLatency(20*time.Millisecond, 120*time.Millisecond)

// addrBlock returns n consecutive port-8333 addresses starting at base.
func addrBlock(base netip.Addr, n int) []netip.AddrPort {
	out := make([]netip.AddrPort, n)
	a := base
	for i := range out {
		out[i] = netip.AddrPortFrom(a, 8333)
		a = a.Next()
	}
	return out
}

// seedSample builds a seed list of n addresses other than self: each is
// live with probability share and dead otherwise. With no dead addresses
// every seed is live and no share is drawn.
func seedSample(rng *rand.Rand, live, dead []netip.AddrPort, share float64, n int,
	self netip.AddrPort, now time.Time) []wire.NetAddress {
	out := make([]wire.NetAddress, 0, n)
	for len(out) < n {
		var a netip.AddrPort
		if len(dead) == 0 || rng.Float64() < share {
			a = live[rng.Intn(len(live))]
		} else {
			a = dead[rng.Intn(len(dead))]
		}
		if a == self {
			continue
		}
		out = append(out, wire.NetAddress{
			Addr: a, Services: wire.SFNodeNetwork, Timestamp: now,
		})
	}
	return out
}

// addPeers adds and starts one reachable full node per address in live,
// in order, each seeded with n addresses from seedSample at
// gossipLiveShare.
func addPeers(net *simnet.Network, rng *rand.Rand, genesis *wire.MsgBlock,
	policies node.PolicySet, live, dead []netip.AddrPort, n int) []*simnet.Host {
	hosts := make([]*simnet.Host, len(live))
	for i, a := range live {
		hosts[i] = net.AddFullNode(node.Config{
			Self:      wire.NetAddress{Addr: a, Services: wire.SFNodeNetwork},
			Reachable: true,
			Genesis:   genesis,
			Policies:  policies,
			SeedAddrs: seedSample(rng, live, dead, gossipLiveShare, n, a, net.Now()),
		})
		hosts[i].Start()
	}
	return hosts
}

// bestHeight is the highest chain among the online hosts, -1 if none is.
func bestHeight(hosts []*simnet.Host) int32 {
	best := int32(-1)
	for _, h := range hosts {
		if n := h.Node(); n != nil {
			best = max(best, n.Chain().Height())
		}
	}
	return best
}

// tally counts the online hosts, those of them at height best, and their
// outbound connections.
func tally(hosts []*simnet.Host, best int32) (online, atTip, outSum int) {
	for _, h := range hosts {
		n := h.Node()
		if n == nil {
			continue
		}
		online++
		out, _, _ := n.ConnCounts()
		outSum += out
		if n.Chain().Height() == best {
			atTip++
		}
	}
	return online, atTip, outSum
}

// mineAtBest draws up to tries hosts and mines a block of at most maxTxs
// mempool transactions on the first that is online at the best height. It
// reports whether a block was mined; false when no draw found such a host.
func mineAtBest(rng *rand.Rand, hosts []*simnet.Host, tries, maxTxs int) bool {
	best := bestHeight(hosts)
	for try := 0; try < tries; try++ {
		n := hosts[rng.Intn(len(hosts))].Node()
		if n == nil || n.Chain().Height() != best {
			continue
		}
		_, err := n.MineBlock(maxTxs)
		return err == nil
	}
	return false
}

// churnHosts makes hosts of pool depart until end: once at first after
// now, then at exponential gaps of mean gap. A departure draws up to tries
// hosts, stops the first online one and hands it to leave, which decides
// when it comes back.
func churnHosts(sched *simnet.Scheduler, rng *rand.Rand, end time.Time, first, gap time.Duration,
	pool []*simnet.Host, tries int, leave func(*simnet.Host)) {
	loop(sched, end, first, func() time.Duration { return expGap(rng, gap) }, func() {
		for try := 0; try < tries; try++ {
			h := pool[rng.Intn(len(pool))]
			if !h.Online() {
				continue
			}
			h.Stop()
			leave(h)
			return
		}
	})
}

// loop runs fn first after now, then again next() after each run, while
// the clock is before end.
func loop(sched *simnet.Scheduler, end time.Time, first time.Duration, next func() time.Duration, fn func()) {
	var tick func()
	tick = func() {
		if !sched.Now().Before(end) {
			return
		}
		fn()
		sched.After(next(), tick)
	}
	sched.After(first, tick)
}

// expGap draws an exponential duration of the given mean.
func expGap(rng *rand.Rand, mean time.Duration) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(mean))
}
