package analysis

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"repro/internal/faults"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// This file implements the chaos experiment: a mesh of full nodes
// subjected to the fault layer's message loss, latency spikes,
// duplication, a partition with heal, and a crash/restart wave. The
// measured question is the robustness counterpart of §IV-D: given the
// adversities the paper identifies, do the node-side defences (keepalive,
// stall eviction, reconnect backoff) bring every survivor back to the
// tip, and how long does recovery take once conditions clear?

// ChaosConfig parameterizes the chaos scenario.
type ChaosConfig struct {
	// Seed drives all randomness (network, nodes, and fault schedule).
	Seed int64
	// NumNodes is the full-node population (default 12).
	NumNodes int
	// Duration is the total scenario length (default 40 min).
	Duration time.Duration
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.NumNodes == 0 {
		c.NumNodes = 12
	}
	if c.Duration == 0 {
		c.Duration = 40 * time.Minute
	}
	return c
}

// The scenario's script. No caller varies it (see DESIGN.md,
// "Configuration").
const (
	// chaosBlockInterval is the mining cadence at node 0. Mining stops
	// 5 minutes before the end so the final measurement is not racing an
	// in-flight block.
	chaosBlockInterval = time.Minute
	// chaosDrop, chaosSpike and chaosDuplicate are the link fault
	// probabilities applied from the start until the faults go off.
	chaosDrop      = 0.05
	chaosSpike     = 0.05
	chaosDuplicate = 0.02
	// The partition window, and the fraction of nodes it isolates from the
	// miner's side.
	chaosPartitionAt    = 5 * time.Minute
	chaosPartitionFor   = 5 * time.Minute
	chaosPartitionShare = 0.4
	// The crash wave: a fifth of the nodes go down chaosCrashStagger
	// apart, each for chaosCrashFor.
	chaosCrashAt      = 12 * time.Minute
	chaosCrashFor     = 3 * time.Minute
	chaosCrashStagger = 30 * time.Second
)

// ChaosResult reports the scenario outcome.
type ChaosResult struct {
	// Converged reports whether every node finished synced at the miner's
	// tip.
	Converged bool
	// SyncedNodes of TotalNodes were at the tip with IsSynced at the end.
	SyncedNodes, TotalNodes int
	// MinerHeight is the final chain height at the mining node.
	MinerHeight int32
	// HeightSpread is max−min final height across nodes (0 when
	// converged).
	HeightSpread int32
	// RecoveryTime is how long after the last scripted disruption every
	// node was back at the tip (0 when that never happened).
	RecoveryTime time.Duration
	// FaultCounters is the injector's sorted counter snapshot.
	FaultCounters []obs.NamedValue
	// Metrics is the run's full registry snapshot: scheduler, network,
	// node, and fault metrics in one name-sorted view. MetricsText is
	// its deterministic rendering — two same-seed runs produce
	// byte-identical text (the determinism golden tests pin this).
	Metrics     *obs.Snapshot
	MetricsText string
	// TraceDigest is the event tracer's running digest over every dial,
	// handshake, relay, block-download, and fault event of the run;
	// TraceTotal counts them, TraceDropped counts ring evictions (the
	// digest covers evicted events too). Same-seed runs produce equal
	// digests.
	TraceDigest  string
	TraceTotal   uint64
	TraceDropped uint64
	// Series holds the sim-time metric series sampled every 30 s of
	// virtual time: counter deltas, gauge values, and histogram
	// quantiles for every registry metric. Same-seed runs render it to
	// byte-identical CSV at any worker count.
	Series *obs.SeriesSet
	// Health aggregates every node's robustness counters.
	Health node.HealthStats
	// PersistentShare is the fraction of crash-tracked nodes present in
	// every presence-matrix sample (the Figure 12 observable under
	// scripted churn; < 1 whenever the crash wave ran).
	PersistentShare float64
}

// RunChaos executes the chaos scenario.
func RunChaos(ctx context.Context, cfg ChaosConfig) (*ChaosResult, error) {
	cfg = cfg.withDefaults()
	if cfg.NumNodes < 4 {
		return nil, fmt.Errorf("analysis: chaos needs at least 4 nodes, got %d", cfg.NumNodes)
	}
	// One private registry and tracer per run: the snapshot and digest
	// are then pure functions of the seed, never polluted by concurrent
	// experiments.
	reg := obs.NewRegistry()
	net := simnet.New(simnet.Config{Seed: cfg.Seed, Metrics: reg})
	tracer := obs.NewTracer(0, net.Now)
	sched := net.Scheduler()
	sampler := obs.NewSampler(reg, obs.DefaultSeriesCapacity)
	sampler.Tick(net.Now())
	stopSampling := sched.Every(chaosSampleEvery, func() { sampler.Tick(net.Now()) })
	defer stopSampling()
	genesis := chainGenesis("chaos")
	inj := faults.New(net, faults.Config{Seed: cfg.Seed, Default: faults.Profile{
		Drop:      chaosDrop,
		Spike:     chaosSpike,
		SpikeMin:  200 * time.Millisecond,
		SpikeMax:  2 * time.Second,
		Duplicate: chaosDuplicate,
	}, Metrics: reg, Tracer: tracer})

	addrs := make([]netip.AddrPort, cfg.NumNodes)
	for i := range addrs {
		addrs[i] = netip.AddrPortFrom(
			netip.AddrFrom4([4]byte{10, 4, byte(i >> 8), byte(i)}), 8333)
	}
	seedsFor := func(self netip.AddrPort) []wire.NetAddress {
		var out []wire.NetAddress
		for _, a := range addrs {
			if a != self {
				out = append(out, wire.NetAddress{
					Addr: a, Services: wire.SFNodeNetwork, Timestamp: net.Now(),
				})
			}
		}
		return out
	}
	for _, a := range addrs {
		net.AddFullNode(node.Config{
			Self:      wire.NetAddress{Addr: a, Services: wire.SFNodeNetwork},
			Reachable: true,
			Genesis:   genesis,
			SeedAddrs: seedsFor(a),
			Metrics:   reg,
			Tracer:    tracer,
		}).Start()
	}
	miner := addrs[0]
	epoch := net.Now()

	mineUntil := cfg.Duration - 5*time.Minute
	var mine func()
	mine = func() {
		if h := net.Host(miner); h.Online() && h.Node() != nil {
			_, _ = h.Node().MineBlock(0)
		}
		if net.Now().Sub(epoch)+chaosBlockInterval < mineUntil {
			sched.After(chaosBlockInterval, mine)
		}
	}
	sched.After(chaosBlockInterval, mine)

	// Partition: the isolated share is taken from the tail so the miner
	// (node 0) stays on the majority side.
	split := cfg.NumNodes - int(float64(cfg.NumNodes)*chaosPartitionShare)
	inj.SchedulePartition(chaosPartitionAt, chaosPartitionFor, addrs[:split], addrs[split:])

	// Crash wave from the tail, never the miner.
	crashes := max(cfg.NumNodes/5, 1)
	inj.CrashWave(addrs[cfg.NumNodes-crashes:], chaosCrashAt, chaosCrashFor, chaosCrashStagger)
	// The probabilistic faults go off 15 minutes before the end, and not
	// before the crash wave's first restart, so the scenario tail converges
	// under clean conditions.
	faultsOffAt := max(cfg.Duration-15*time.Minute, chaosCrashAt+chaosCrashFor)
	sched.After(faultsOffAt, func() { inj.SetEnabled(false) })

	// The last scripted disruption: the final crash's restart, which is
	// after the partition heals.
	lastDisruption := chaosCrashAt +
		time.Duration(crashes-1)*chaosCrashStagger + chaosCrashFor
	atTip := func() bool {
		mh := net.Host(miner)
		if mh.Node() == nil {
			return false
		}
		tip, _ := mh.Node().Chain().Tip()
		for _, a := range addrs {
			h := net.Host(a)
			if !h.Online() || h.Node() == nil {
				return false
			}
			if t, _ := h.Node().Chain().Tip(); t != tip || !h.Node().IsSynced() {
				return false
			}
		}
		return true
	}
	res := &ChaosResult{TotalNodes: cfg.NumNodes}
	var watch func()
	watch = func() {
		if res.RecoveryTime == 0 && net.Now().Sub(epoch) > lastDisruption && atTip() {
			res.RecoveryTime = net.Now().Sub(epoch) - lastDisruption
		}
		if net.Now().Sub(epoch)+15*time.Second < cfg.Duration {
			sched.After(15*time.Second, watch)
		}
	}
	sched.After(15*time.Second, watch)

	if err := sched.RunForCtx(ctx, cfg.Duration); err != nil {
		return nil, err
	}

	tip, minerHeight := net.Host(miner).Node().Chain().Tip()
	res.MinerHeight = minerHeight
	minH, maxH := minerHeight, minerHeight
	for _, a := range addrs {
		h := net.Host(a)
		if !h.Online() || h.Node() == nil {
			continue
		}
		nodeTip, height := h.Node().Chain().Tip()
		if height < minH {
			minH = height
		}
		if height > maxH {
			maxH = height
		}
		if nodeTip == tip && h.Node().IsSynced() {
			res.SyncedNodes++
		}
		hs := h.Node().Health()
		res.Health.PingsSent += hs.PingsSent
		res.Health.StallEvictions += hs.StallEvictions
		res.Health.HandshakeEvictions += hs.HandshakeEvictions
		res.Health.BlockStallEvictions += hs.BlockStallEvictions
		res.Health.BackoffsArmed += hs.BackoffsArmed
	}
	res.HeightSpread = maxH - minH
	res.Converged = res.SyncedNodes == res.TotalNodes
	res.FaultCounters = inj.Counters()
	if m := inj.PresenceMatrix(time.Minute); m.Rows() > 0 {
		res.PersistentShare = float64(m.PersistentCount()) / float64(m.Rows())
		m.Publish(reg)
	}
	tracer.Publish(reg)
	res.Metrics = reg.Snapshot()
	res.MetricsText = res.Metrics.String()
	res.TraceDigest = tracer.Digest()
	res.TraceTotal = tracer.Total()
	res.TraceDropped = tracer.Dropped()
	res.Series = sampler.Set()
	return res, nil
}

// chaosSampleEvery is the chaos scenario's sim-time sampling cadence:
// dense enough to resolve the partition and crash windows on a 40 min
// run, coarse enough that the series stay small.
const chaosSampleEvery = 30 * time.Second
