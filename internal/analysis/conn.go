package analysis

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/chain"
	"repro/internal/node"
	"repro/internal/obs"
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
	// (background peers and observer), so the intervention grid can
	// measure the §V refinements' effect on cold-start success. Empty
	// means stock behaviour.
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

// connDeadAddrs is the number of dead/unreachable addresses mixed into
// the observer's address manager beside livePeers live ones, so that the
// live peers are the gossip's 14.9% (the paper's tables hold 85.1% such
// addresses).
func connDeadAddrs(livePeers int) int {
	return deadAddrPool(livePeers) - livePeers
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
// in order, each on its own paired seed and simulator; the aggregates
// are folded over the run-indexed slots afterwards.
func RunConnExperiment(ctx context.Context, cfg ConnExperimentConfig) (*ConnExperimentResult, error) {
	cfg = cfg.withDefaults()
	if cfg.LivePeers < 8 {
		return nil, fmt.Errorf("analysis: need at least 8 live peers, got %d", cfg.LivePeers)
	}
	res := &ConnExperimentResult{Runs: make([]ConnRun, cfg.Runs)}

	for run := range res.Runs {
		seed := cfg.Seed + int64(run)*1000
		rng := rand.New(rand.NewSource(seed))
		net := simnet.New(simnet.Config{Seed: seed, Latency: simLatency})
		sched := net.Scheduler()
		genesis := chain.GenesisBlock("conn-experiment")

		live := addrBlock(netip.AddrFrom4([4]byte{10, 1, 0, 0}), cfg.LivePeers)
		dead := addrBlock(netip.AddrFrom4([4]byte{172, 20, 0, 0}), connDeadAddrs(cfg.LivePeers))
		// Background peers live with the same polluted gossip the paper
		// measured: their tables (and therefore their ADDR responses to
		// the observer) are dominated by dead addresses.
		liveHosts := addPeers(net, rng, genesis, cfg.Policies, live, dead, 150)
		// Let the background network interconnect; with an 85% dead mix
		// this takes a while, exactly as in the live network.
		if err := sched.RunForCtx(ctx, 10*time.Minute); err != nil {
			return nil, err
		}

		// Every driver below stops at the end of the sampled window.
		end := net.Now().Add(cfg.ObserverWarmup + cfg.Duration)

		// Background churn destabilizes the observer's connections.
		if cfg.PeerChurnPer10Min > 0 {
			gap := time.Duration(float64(10*time.Minute) / cfg.PeerChurnPer10Min)
			churnHosts(sched, rng, end, 0, gap, liveHosts, 1, func(h *simnet.Host) {
				sched.After(5*time.Minute, h.Start)
			})
		}

		// The observer starts now, with gossip-mix address tables. Its
		// private registry holds the dial counters the run reports.
		observerAddr := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 9, 9, 9}), 8333)
		observerReg := obs.NewRegistry()
		dialAttempts := observerReg.Counter("node.dial.attempt")
		dialSuccesses := observerReg.Counter("node.dial.success")
		observer := net.AddFullNode(node.Config{
			Self:      wire.NetAddress{Addr: observerAddr, Services: wire.SFNodeNetwork},
			Reachable: true,
			Genesis:   genesis,
			Policies:  cfg.Policies,
			SeedAddrs: seedSample(rng, live, dead, gossipLiveShare, observerSeeds, observerAddr, net.Now()),
			Metrics:   observerReg,
		})
		observer.Start()
		seedStaleTried(rng, observer.Node(), dead, live, net.Now())
		hostByAddr := make(map[netip.AddrPort]*simnet.Host, len(liveHosts))
		for _, h := range liveHosts {
			hostByAddr[h.Addr()] = h
		}
		if cfg.ConnDropEvery > 0 {
			next := func() time.Duration { return expGap(rng, cfg.ConnDropEvery) }
			loop(sched, end, next(), next, func() {
				if n := observer.Node(); n != nil {
					if peers := n.PeerAddrs(node.Outbound); len(peers) > 0 {
						if h := hostByAddr[peers[rng.Intn(len(peers))]]; h != nil && h.Online() {
							h.Stop()
							sched.After(90*time.Second, h.Start)
						}
					}
				}
			})
		}
		if cfg.ObserverWarmup > 0 {
			if err := sched.RunForCtx(ctx, cfg.ObserverWarmup); err != nil {
				return nil, err
			}
		}

		cr := ConnRun{}
		startAttempts, startSuccesses := dialAttempts.Value(), dialSuccesses.Value()
		loop(sched, end, 0, func() time.Duration { return cfg.SampleEvery }, func() {
			if n := observer.Node(); n != nil {
				out, _, feelers := n.ConnCounts()
				cr.Samples = append(cr.Samples, out+feelers)
			}
		})
		if err := sched.RunUntilCtx(ctx, end); err != nil {
			return nil, err
		}

		cr.Attempts = int(dialAttempts.Value() - startAttempts)
		cr.Successes = int(dialSuccesses.Value() - startSuccesses)
		res.Runs[run] = cr
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

// gossipLiveShare is the share of the connection experiments' seeds that
// are live: the gossip's reachable share, discounted by
// gossipOnlineFraction.
const gossipLiveShare = addrReachableShare * gossipOnlineFraction

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

// RunResync restarts a node inside a network of livePeers reachable
// nodes and measures its recovery milestones over a 30-minute window.
func RunResync(ctx context.Context, seed int64, livePeers int) (*ResyncResult, error) {
	if livePeers < 8 {
		return nil, fmt.Errorf("analysis: need at least 8 live peers, got %d", livePeers)
	}
	rng := rand.New(rand.NewSource(seed))
	net := simnet.New(simnet.Config{Seed: seed, Latency: simLatency})
	sched := net.Scheduler()
	genesis := chain.GenesisBlock("resync")

	live := addrBlock(netip.AddrFrom4([4]byte{10, 2, 0, 0}), livePeers)
	hosts := addPeers(net, rng, genesis, nil, live, nil, 20)
	dead := addrBlock(netip.AddrFrom4([4]byte{172, 21, 0, 0}), connDeadAddrs(livePeers))
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
		SeedAddrs:       seedSample(rng, live, dead, gossipLiveShare, observerSeeds, observerAddr, net.Now()),
		Sink: func(ev node.Event) {
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
		},
	})
	observer.Start()
	seedStaleTried(rng, observer.Node(), dead, live, net.Now())

	end := net.Now().Add(30 * time.Minute)
	loop(sched, end, 0, func() time.Duration { return time.Second }, func() {
		if n := observer.Node(); n != nil && res.ToFullSlots == 0 {
			if out, _, _ := n.ConnCounts(); out >= node.DefaultMaxOutbound {
				res.ToFullSlots = net.Now().Sub(restartAt)
			}
		}
	})
	if err := sched.RunUntilCtx(ctx, end); err != nil {
		return nil, err
	}

	if res.ToSynced == 0 {
		return nil, fmt.Errorf("analysis: node failed to resync within 30 minutes")
	}
	return res, nil
}
