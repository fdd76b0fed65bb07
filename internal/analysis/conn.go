package analysis

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/node"
	"repro/internal/par"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// This file implements the §IV-B connection experiments: the outgoing
// connection stability trace (Figure 6) and the connection attempt
// success-rate experiments (Figure 7), plus the restart/resync
// measurement from §IV-D.

// ConnExperimentConfig parameterizes the single-node connection
// experiments.
type ConnExperimentConfig struct {
	// Seed drives all randomness.
	Seed int64
	// LivePeers is the number of live reachable nodes in the background
	// network.
	LivePeers int
	// Duration is the observation window (Figure 6: 260 s;
	// Figure 7: 5 min per run).
	Duration time.Duration
	// SampleEvery is the Figure 6 sampling cadence (1 s).
	SampleEvery time.Duration
	// PeerChurnPer10Min stops/restarts background peers to destabilize
	// the observer's connections.
	PeerChurnPer10Min float64
	// ConnDropEvery injects link failures: at this mean interval one of
	// the observer's outbound connections is torn down (the peer host
	// bounces). The paper attributes connection drops to departures
	// *and* link failures (§IV-B); without injection a short observation
	// window sees too few drops.
	ConnDropEvery time.Duration
	// ObserverWarmup lets the observer run before the sampled window
	// (Figure 6 observes an established node; Figure 7 measures from a
	// cold start and uses zero warmup).
	ObserverWarmup time.Duration
	// Policies is the intervention policy set applied to every node
	// (background peers and observer), so the ablation can measure the
	// §V refinements' effect on cold-start success. Empty means stock
	// behaviour.
	Policies node.PolicySet
	// Runs repeats the experiment (Figure 7 uses 5 runs).
	Runs int
}

func (c ConnExperimentConfig) withDefaults() ConnExperimentConfig {
	if c.LivePeers == 0 {
		c.LivePeers = 60
	}
	if c.Duration == 0 {
		c.Duration = 260 * time.Second
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = time.Second
	}
	if c.Runs == 0 {
		c.Runs = 1
	}
	return c
}

// deadAddrs is the number of dead/unreachable addresses mixed into the
// observer's address manager, so that the live peers are the gossip's
// 14.9% (the paper's tables hold 85.1% such addresses).
func (c ConnExperimentConfig) deadAddrs() int {
	return deadAddrPool(c.LivePeers) - c.LivePeers
}

const (
	// observerSeeds sizes the observer's initial address tables.
	observerSeeds = 300
	// staleTried is how many mostly-dead addresses the observer's tried
	// table is seeded with before measurement, modelling a restarting node
	// whose persisted peers.dat references long-departed peers — without
	// it the fresh tried table is unrealistically healthy and the success
	// rate overshoots the paper's 11.2%.
	staleTried = 120
)

// ConnRun is one experiment run.
type ConnRun struct {
	// Samples traces the observer's outgoing connection count
	// (outbound + feelers, Figure 6's 2–10 range).
	Samples []int
	// Attempts and Successes are the Figure 7 observables.
	Attempts, Successes int
}

// ConnExperimentResult aggregates the runs.
type ConnExperimentResult struct {
	// Runs holds each run's trace and dial counts.
	Runs []ConnRun
	// MeanConns is the average sampled connection count (paper: 6.67).
	MeanConns float64
	// FracBelowTarget is the fraction of samples under 8 connections
	// (paper: ≈60%).
	FracBelowTarget float64
	// SuccessRate is successes/attempts across runs (paper: 11.2%).
	SuccessRate float64
}

// RunConnExperiment builds a background network, then starts a fresh
// observer node whose address tables match the measured gossip mix, and
// watches its outgoing connections — the §IV-B experiments. Runs execute
// concurrently (par.Replicate), each on its own paired seed and
// simulator; results land in run-indexed slots and the aggregates are
// folded afterwards, so the result matches the former sequential loop.
func RunConnExperiment(ctx context.Context, cfg ConnExperimentConfig) (*ConnExperimentResult, error) {
	cfg = cfg.withDefaults()
	if cfg.LivePeers < 8 {
		return nil, fmt.Errorf("analysis: need at least 8 live peers, got %d", cfg.LivePeers)
	}
	res := &ConnExperimentResult{Runs: make([]ConnRun, cfg.Runs)}

	err := par.Replicate(ctx, cfg.Runs, func(ctx context.Context, run int) error {
		seed := cfg.Seed + int64(run)*1000
		rng := rand.New(rand.NewSource(seed))
		net := simnet.New(simnet.Config{
			Seed:    seed,
			Latency: simnet.HashLatency(20*time.Millisecond, 120*time.Millisecond),
		})
		sched := net.Scheduler()
		genesis := chainGenesis("conn-experiment")

		live := make([]netip.AddrPort, cfg.LivePeers)
		var liveHosts []*simnet.Host
		for i := range live {
			live[i] = netip.AddrPortFrom(
				netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}), 8333)
			liveHosts = append(liveHosts, nil) // placeholder; filled below
		}
		dead := make([]netip.AddrPort, cfg.deadAddrs())
		for i := range dead {
			dead[i] = netip.AddrPortFrom(
				netip.AddrFrom4([4]byte{172, 20, byte(i >> 8), byte(i)}), 8333)
		}
		// Background peers live with the same polluted gossip the paper
		// measured: their tables (and therefore their ADDR responses to
		// the observer) are dominated by dead addresses.
		for i := range live {
			h := net.AddFullNode(node.Config{
				Self:      wire.NetAddress{Addr: live[i], Services: wire.SFNodeNetwork},
				Reachable: true,
				Genesis:   genesis,
				Policies:  cfg.Policies,
				SeedAddrs: seedSample(rng, live, dead, 150, live[i], net.Now()),
			})
			h.Start()
			liveHosts[i] = h
		}
		// Let the background network interconnect; with an 85% dead mix
		// this takes a while, exactly as in the live network.
		if err := sched.RunForCtx(ctx, 10*time.Minute); err != nil {
			return err
		}

		// Background churn destabilizes the observer's connections.
		if cfg.PeerChurnPer10Min > 0 {
			gap := time.Duration(float64(10*time.Minute) / cfg.PeerChurnPer10Min)
			var churnTick func()
			churnTick = func() {
				h := liveHosts[rng.Intn(len(liveHosts))]
				if h.Online() {
					h.Stop()
					sched.After(5*time.Minute, h.Start)
				}
				sched.After(time.Duration(rng.ExpFloat64()*float64(gap)), churnTick)
			}
			sched.After(0, churnTick)
		}

		// The observer starts now, with gossip-mix address tables.
		observerAddr := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 9, 9, 9}), 8333)
		observer := net.AddFullNode(node.Config{
			Self:      wire.NetAddress{Addr: observerAddr, Services: wire.SFNodeNetwork},
			Reachable: true,
			Genesis:   genesis,
			Policies:  cfg.Policies,
			SeedAddrs: seedSample(rng, live, dead, observerSeeds, observerAddr, net.Now()),
		})
		observer.Start()
		seedStaleTried(rng, observer.Node(), dead, live, net.Now())
		hostByAddr := make(map[netip.AddrPort]*simnet.Host, len(liveHosts))
		for _, h := range liveHosts {
			hostByAddr[h.Addr()] = h
		}
		if cfg.ConnDropEvery > 0 {
			var dropTick func()
			dropTick = func() {
				if n := observer.Node(); n != nil {
					if peers := n.PeerAddrs(node.Outbound); len(peers) > 0 {
						if h := hostByAddr[peers[rng.Intn(len(peers))]]; h != nil && h.Online() {
							h.Stop()
							sched.After(90*time.Second, h.Start)
						}
					}
				}
				sched.After(time.Duration(rng.ExpFloat64()*float64(cfg.ConnDropEvery)), dropTick)
			}
			sched.After(time.Duration(rng.ExpFloat64()*float64(cfg.ConnDropEvery)), dropTick)
		}
		if cfg.ObserverWarmup > 0 {
			if err := sched.RunForCtx(ctx, cfg.ObserverWarmup); err != nil {
				return err
			}
		}

		cr := ConnRun{}
		measureStartAttempts, measureStartSuccesses := 0, 0
		if n := observer.Node(); n != nil {
			measureStartAttempts, measureStartSuccesses = n.DialStats()
		}
		end := net.Now().Add(cfg.Duration)
		var sample func()
		sample = func() {
			if !net.Now().Before(end) {
				return
			}
			if n := observer.Node(); n != nil {
				out, _, feelers := n.ConnCounts()
				cr.Samples = append(cr.Samples, out+feelers)
			}
			sched.After(cfg.SampleEvery, sample)
		}
		sched.After(0, sample)
		if err := sched.RunUntilCtx(ctx, end); err != nil {
			return err
		}

		if n := observer.Node(); n != nil {
			a, su := n.DialStats()
			cr.Attempts, cr.Successes = a-measureStartAttempts, su-measureStartSuccesses
		}
		res.Runs[run] = cr
		return nil
	})
	if err != nil {
		return nil, err
	}

	var attempts, successes, sampleSum, sampleCount, below int
	for _, r := range res.Runs {
		attempts += r.Attempts
		successes += r.Successes
		for _, s := range r.Samples {
			sampleSum += s
			sampleCount++
			if s < node.DefaultMaxOutbound {
				below++
			}
		}
	}
	if attempts > 0 {
		res.SuccessRate = float64(successes) / float64(attempts)
	}
	if sampleCount > 0 {
		res.MeanConns = float64(sampleSum) / float64(sampleCount)
		res.FracBelowTarget = float64(below) / float64(sampleCount)
	}
	return res, nil
}

// seedStaleTried plants staleTried tried-table entries that mostly point
// at departed peers: the address manager state a node restarts with after
// its peers churned away (≈85% of tried entries go stale at the paper's
// measured churn).
func seedStaleTried(rng *rand.Rand, n *node.Node, dead, live []netip.AddrPort, now time.Time) {
	if n == nil || len(dead) == 0 {
		return
	}
	am := n.AddrMan()
	for i := 0; i < staleTried; i++ {
		var a netip.AddrPort
		if rng.Float64() < 0.10 && len(live) > 0 {
			a = live[rng.Intn(len(live))]
		} else {
			a = dead[rng.Intn(len(dead))]
		}
		am.Add([]wire.NetAddress{{
			Addr: a, Services: wire.SFNodeNetwork, Timestamp: now,
		}}, a.Addr())
		am.Good(a)
	}
}

// gossipOnlineFraction is the share of gossiped reachable addresses that
// are still online when dialed: the network gossips ~50% more reachable
// addresses than are concurrently up (28,781 uniques against ~10K online
// in the paper's data), so a "reachable" ADDR entry is dead about a third
// of the time.
const gossipOnlineFraction = 0.67

// seedSample builds a seed list mixing live and dead addresses at the
// gossip's reachable share, discounted by gossipOnlineFraction; with no
// dead addresses every seed is live.
func seedSample(rng *rand.Rand, live, dead []netip.AddrPort, n int,
	self netip.AddrPort, now time.Time) []wire.NetAddress {
	out := make([]wire.NetAddress, 0, n)
	for len(out) < n {
		var a netip.AddrPort
		if len(dead) == 0 || rng.Float64() < addrReachableShare*gossipOnlineFraction {
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

// ResyncResult measures a restarted node's recovery (§IV-D: the paper
// measured 11 min 14 s to resynchronize and resume relaying).
type ResyncResult struct {
	// ToFirstConnection is the time until the first outbound handshake.
	ToFirstConnection time.Duration
	// ToSynced is the time until IBD completed.
	ToSynced time.Duration
	// ToFullSlots is the time until all 8 outbound slots filled (0 if
	// never within the window).
	ToFullSlots time.Duration
}

// RunResync restarts a node inside a live network and measures its
// recovery milestones.
func RunResync(ctx context.Context, cfg ConnExperimentConfig) (*ResyncResult, error) {
	cfg = cfg.withDefaults()
	if cfg.LivePeers < 8 {
		return nil, fmt.Errorf("analysis: need at least 8 live peers, got %d", cfg.LivePeers)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := simnet.New(simnet.Config{
		Seed:    cfg.Seed,
		Latency: simnet.HashLatency(20*time.Millisecond, 120*time.Millisecond),
	})
	sched := net.Scheduler()
	genesis := chainGenesis("resync")

	live := make([]netip.AddrPort, cfg.LivePeers)
	var hosts []*simnet.Host
	for i := range live {
		live[i] = netip.AddrPortFrom(
			netip.AddrFrom4([4]byte{10, 2, byte(i >> 8), byte(i)}), 8333)
		h := net.AddFullNode(node.Config{
			Self:      wire.NetAddress{Addr: live[i], Services: wire.SFNodeNetwork},
			Reachable: true,
			Genesis:   genesis,
			SeedAddrs: seedSample(rng, live, nil, 20, live[i], net.Now()),
		})
		h.Start()
		hosts = append(hosts, h)
	}
	dead := make([]netip.AddrPort, cfg.deadAddrs())
	for i := range dead {
		dead[i] = netip.AddrPortFrom(
			netip.AddrFrom4([4]byte{172, 21, byte(i >> 8), byte(i)}), 8333)
	}
	if err := sched.RunForCtx(ctx, time.Minute); err != nil {
		return nil, err
	}
	// Build some chain history the restarted node must catch up on.
	// (The restarted observer below also gets a stale tried table, the
	// address-manager state a real restart inherits.)
	for i := 0; i < 12; i++ {
		h := hosts[rng.Intn(len(hosts))]
		sched.After(0, func() {
			if n := h.Node(); n != nil {
				_, _ = n.MineBlock(0)
			}
		})
		if err := sched.RunForCtx(ctx, 30*time.Second); err != nil {
			return nil, err
		}
	}

	res := &ResyncResult{}
	restartAt := net.Now()
	observerAddr := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 9, 9, 8}), 8333)
	var observer *simnet.Host
	observer = net.AddFullNode(node.Config{
		Self:      wire.NetAddress{Addr: observerAddr, Services: wire.SFNodeNetwork},
		Reachable: true,
		Genesis:   genesis,
		// Bitcoin Core restarts dial serially (ThreadOpenConnections):
		// most of the paper's 11-minute recovery is spent here.
		MaxPendingDials: 1,
		SeedAddrs:       seedSample(rng, live, dead, observerSeeds, observerAddr, net.Now()),
		Sink: node.SinkFunc(func(ev node.Event) {
			switch ev.Type {
			case node.EvHandshake:
				if ev.Dir == node.Outbound && res.ToFirstConnection == 0 {
					res.ToFirstConnection = ev.Time.Sub(restartAt)
				}
			case node.EvSyncDone:
				if res.ToSynced == 0 {
					res.ToSynced = ev.Time.Sub(restartAt)
				}
			}
		}),
	})
	observer.Start()
	seedStaleTried(rng, observer.Node(), dead, live, net.Now())

	end := net.Now().Add(30 * time.Minute)
	var watch func()
	watch = func() {
		if !net.Now().Before(end) {
			return
		}
		if n := observer.Node(); n != nil && res.ToFullSlots == 0 {
			if out, _, _ := n.ConnCounts(); out >= node.DefaultMaxOutbound {
				res.ToFullSlots = net.Now().Sub(restartAt)
			}
		}
		sched.After(time.Second, watch)
	}
	sched.After(0, watch)
	if err := sched.RunUntilCtx(ctx, end); err != nil {
		return nil, err
	}

	if res.ToSynced == 0 {
		return nil, fmt.Errorf("analysis: node failed to resync within 30 minutes")
	}
	return res, nil
}
