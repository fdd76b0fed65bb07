package analysis

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"repro/internal/asmap"
	"repro/internal/chain"
	"repro/internal/simnet"
)

// This file extends the paper's §IV-A1 routing-attack revision from a
// counting argument to a live experiment: build a network whose nodes are
// placed in ASes per the Table I distribution, take the top-k ASes off
// the air (a BGP hijack blackholes their prefixes), and measure what
// actually happens to the survivors' connectivity and synchronization —
// not just what fraction of nodes was hosted there.

// HijackConfig parameterizes the partition experiment.
type HijackConfig struct {
	// Seed drives all randomness.
	Seed int64
	// NumReachable is the live network size.
	NumReachable int
	// At is when the hijack strikes, after the topology forms.
	At time.Duration
	// Observe is how long after the hijack the survivors are measured.
	Observe time.Duration
}

func (c HijackConfig) withDefaults() HijackConfig {
	if c.NumReachable == 0 {
		c.NumReachable = 120
	}
	if c.At == 0 {
		c.At = 30 * time.Minute
	}
	if c.Observe == 0 {
		c.Observe = 30 * time.Minute
	}
	return c
}

// hijackTopASes is how many of the largest ASes are blackholed.
const hijackTopASes = 8

// HijackResult reports the partition experiment.
type HijackResult struct {
	// HijackedASes lists the blackholed ASNs.
	HijackedASes []uint32
	// IsolatedShare is the fraction of nodes taken off the air directly.
	IsolatedShare float64
	// SurvivorMeanOutdegreeBefore/After contrast the survivors'
	// connectivity.
	SurvivorMeanOutdegreeBefore, SurvivorMeanOutdegreeAfter float64
	// SurvivorsAtTip is the fraction of surviving nodes at the chain tip
	// at the end of the observation window (blocks keep being mined).
	SurvivorsAtTip float64
	// BlocksMinedAfter counts post-hijack blocks.
	BlocksMinedAfter int
}

// RunHijack executes the partition experiment.
func RunHijack(ctx context.Context, cfg HijackConfig) (*HijackResult, error) {
	cfg = cfg.withDefaults()
	if cfg.NumReachable < 10 {
		return nil, fmt.Errorf("analysis: hijack needs at least 10 nodes, got %d", cfg.NumReachable)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Place nodes in ASes per the paper's reachable distribution.
	weights := asmap.PowerLawWeights(map[uint32]float64{
		3320: .0808, 24940: .0505, 8881: .0460, 16509: .0362, 6805: .0297,
		14061: .0284, 7922: .0255, 16276: .0243, 3209: .0206, 4134: .0076,
	}, 200, 100000, 0.65)
	dist, err := asmap.NewDistribution(weights)
	if err != nil {
		return nil, fmt.Errorf("analysis: hijack distribution: %w", err)
	}
	alloc := asmap.NewIPAllocator(1 << 12)

	net := simnet.New(simnet.Config{
		Seed:    cfg.Seed,
		Latency: simnet.ASLatency(alloc, 8*time.Millisecond, 30*time.Millisecond, 120*time.Millisecond),
	})
	sched := net.Scheduler()

	// asns[i] is the AS hosting hosts[i].
	asns := make([]uint32, cfg.NumReachable)
	addrs := make([]netip.AddrPort, cfg.NumReachable)
	for i := range asns {
		asns[i] = dist.Sample(rng)
		ip, err := alloc.Alloc(asns[i])
		if err != nil {
			return nil, fmt.Errorf("analysis: alloc: %w", err)
		}
		addrs[i] = netip.AddrPortFrom(ip, 8333)
	}
	hosts := addPeers(net, rng, chain.GenesisBlock("hijack"), nil, addrs, nil, 20)
	if err := sched.RunForCtx(ctx, cfg.At); err != nil {
		return nil, err
	}

	// Identify the top-k ASes by hosted nodes.
	census := asmap.NewCensus()
	for _, asn := range asns {
		census.Add(asn)
	}
	top := census.TopN(hijackTopASes)
	hijacked := make(map[uint32]bool, len(top))
	res := &HijackResult{}
	for _, s := range top {
		hijacked[s.ASN] = true
		res.HijackedASes = append(res.HijackedASes, s.ASN)
	}
	sort.Slice(res.HijackedASes, func(i, j int) bool {
		return res.HijackedASes[i] < res.HijackedASes[j]
	})

	// Measure survivors' outdegree before the hijack.
	var survivors []*simnet.Host
	for i, h := range hosts {
		if !hijacked[asns[i]] {
			survivors = append(survivors, h)
		}
	}
	res.IsolatedShare = 1 - float64(len(survivors))/float64(len(hosts))
	_, _, outBefore := tally(survivors, bestHeight(survivors))

	// The hijack: every node in a hijacked AS goes dark at once.
	sched.After(0, func() {
		for i, h := range hosts {
			if hijacked[asns[i]] {
				h.Stop()
			}
		}
	})

	// Keep mining on survivors through the observation window.
	end := net.Now().Add(cfg.Observe)
	loop(sched, end, time.Minute, func() time.Duration { return expGap(rng, 5*time.Minute) }, func() {
		if mineAtBest(rng, survivors, 10, 0) {
			res.BlocksMinedAfter++
		}
	})
	if err := sched.RunUntilCtx(ctx, end); err != nil {
		return nil, err
	}

	// Post-hijack measurements.
	_, atTip, outAfter := tally(survivors, bestHeight(survivors))
	if len(survivors) > 0 {
		res.SurvivorMeanOutdegreeBefore = float64(outBefore) / float64(len(survivors))
		res.SurvivorMeanOutdegreeAfter = float64(outAfter) / float64(len(survivors))
		res.SurvivorsAtTip = float64(atTip) / float64(len(survivors))
	}
	return res, nil
}
