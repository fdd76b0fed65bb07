// Package analysis implements the paper's measurement pipelines: the
// message-level propagation experiments (synchronization, connection
// stability and success, relay delays, the §V ablation) and the
// snapshot-level studies (crawl series, AS censuses, churn figures). Each
// Fig*/Table* entry point returns plain data that internal/core renders.
package analysis

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// PropagationConfig parameterizes a message-level network experiment.
type PropagationConfig struct {
	// Seed drives all randomness.
	Seed int64
	// NumReachable is the number of live reachable full nodes.
	NumReachable int
	// Warmup lets the topology form before measurement begins.
	Warmup time.Duration
	// Duration is the measured phase length.
	Duration time.Duration
	// TxPerBlock is the number of background transactions submitted per
	// mean block interval (they fill the round-robin queues).
	TxPerBlock int
	// CompactBlocks enables BIP-152 relay on a CompactShare of the
	// nodes (the §IV-C toggle).
	CompactBlocks bool
	// Policies is the intervention policy set forwarded to every node
	// (reachable and unreachable alike). Empty means stock behaviour.
	Policies node.PolicySet
	// UnreachableShare adds round(share·NumReachable) unreachable (NATed)
	// full nodes to the network. They dial out and participate in relay
	// but refuse inbound connections, reproducing the §IV population mix;
	// the unreachable-tx-relay policy changes whether they forward
	// third-party transactions. 0 keeps the legacy reachable-only
	// network, byte-identical to pre-policy runs.
	UnreachableShare float64
	// ObserverAddrSink receives every multi-address ADDR payload the
	// observer node ingests (GETADDR response chunks; single-address
	// self-advertisements are filtered at the node). It feeds the
	// Grundmann estimators in the intervention grid. When set, the result
	// also carries AddrManSizes as degree ground truth.
	ObserverAddrSink func(from netip.AddrPort, addrs []wire.NetAddress)
	// CompactShare is the fraction of nodes that negotiate BIP-152
	// compact relay when CompactBlocks is set (default 1.0). The 2020
	// network mixed compact and legacy peers; a legacy peer receives the
	// full ~1 MB block body, whose serialization stalls the round-robin
	// loop and produces the long relay tails of Figure 10.
	CompactShare float64
	// ChurnDeparturesPer10Min is the synchronized-node departure rate
	// driven through the network (paper: 3.9 in 2019, 7.6 in 2020 at
	// full scale — scale it with NumReachable).
	ChurnDeparturesPer10Min float64
	// BytesPerSec forwards to the node timing model: the effective
	// per-socket rate; lower values deepen the §IV-C queueing delays.
	BytesPerSec int
	// Metrics optionally supplies the registry the run writes to. Leave
	// nil for a private registry (the default, and required when several
	// runs execute concurrently — the snapshot must be a pure function of
	// this run).
	Metrics *obs.Registry
	// TraceSink optionally receives every trace event at emission time
	// (the -trace-out NDJSON stream). It runs under the tracer lock, must
	// not call back into the tracer and must not keep the pointer (see
	// obs.Tracer.AddStream). Run it per-experiment: the sink sees only
	// this run's events.
	TraceSink func(*obs.Event)
}

func (c PropagationConfig) withDefaults() PropagationConfig {
	if c.NumReachable == 0 {
		c.NumReachable = 200
	}
	if c.Warmup == 0 {
		c.Warmup = 20 * time.Minute
	}
	if c.Duration == 0 {
		c.Duration = 4 * time.Hour
	}
	if c.CompactShare == 0 {
		c.CompactShare = 1.0
	}
	return c
}

// Constants of the propagation environment. No caller varies them (see
// DESIGN.md, "Configuration").
const (
	// addrReachableShare is the fraction of reachable addresses in gossip
	// and so in each node's seed set (paper: 14.9%).
	addrReachableShare = 0.149
	// seedsPerNode is how many addresses each node starts with.
	seedsPerNode = 200
	// blockInterval is the mean block production gap, as on mainnet.
	blockInterval = 10 * time.Minute
	// rejoinAfter is the mean offline period before a departed node
	// rejoins.
	rejoinAfter = 30 * time.Minute
	// syncSampleEvery is the cadence at which network synchronization and
	// the sim-time series are sampled (the paper's Bitnodes feed is
	// 10-minutely; denser sampling reduces estimator variance without
	// changing the mean).
	syncSampleEvery = 2 * time.Minute
	// pollInterval is the Bitnodes-style monitor cadence: each node's
	// height is only observed when the monitor revisits it, so the
	// observed synchronization lags the true one — the measurement
	// process behind Figure 1.
	pollInterval = 5 * time.Minute
	// listingTTL keeps recently-departed nodes in the monitor's listing
	// (they count as unsynchronized until they expire), matching how a
	// crawler's view lags churn.
	listingTTL = time.Hour
)

// deadAddrPool is the number of unreachable/dead addresses mixed into
// gossip and seeds beside numReachable live ones; dials to them time out,
// reproducing the §IV-B failure rate.
func deadAddrPool(numReachable int) int {
	return int(float64(numReachable) / addrReachableShare)
}

// RelayObservation is one node's relay-completion record for one object:
// the delay between receiving it and relaying it to the last connection.
type RelayObservation struct {
	// Node reporting the observation.
	Node netip.AddrPort
	// LastDelay is the receive-to-last-connection delay (Figure 10/11).
	LastDelay time.Duration
	// Fanout is the number of connections relayed to.
	Fanout int
}

// PropagationResult aggregates a propagation experiment.
type PropagationResult struct {
	// SyncSamples is the true fraction of online nodes at the chain
	// tip, sampled every two minutes.
	SyncSamples []float64
	// ObservedSyncSamples is the Bitnodes-style measurement: the
	// fraction of *listed* nodes (online or recently departed) whose
	// *last-polled* height equals the tip — Figure 1's actual
	// observable. Polling lag and churn both depress it.
	ObservedSyncSamples []float64
	// BlockRelays and TxRelays hold per-node-per-object relay
	// observations (Figures 10/11).
	BlockRelays []RelayObservation
	TxRelays    []RelayObservation
	// DialAttempts/DialSuccesses count outbound-slot dials summed over
	// all nodes (feelers excluded — they probe the new table by design
	// and would dilute the §V addressing comparisons).
	DialAttempts  int
	DialSuccesses int
	// FeelerAttempts/FeelerSuccesses count feeler dials.
	FeelerAttempts  int
	FeelerSuccesses int
	// BlocksMined counts produced blocks.
	BlocksMined int
	// NumUnreachable is the number of unreachable nodes the run added
	// (round(UnreachableShare·NumReachable)).
	NumUnreachable int
	// AddrManSizes maps each host (reachable and unreachable) that was
	// online at run end to its address-manager size — the degree ground
	// truth for the Grundmann estimator. Populated only when
	// ObserverAddrSink is set.
	AddrManSizes map[netip.AddrPort]int
	// MeanOutdegree is the average outbound connection count across
	// online nodes, sampled per block.
	MeanOutdegree float64
	// Series holds the sim-time metric series sampled every two minutes
	// during the measured phase (counter deltas, gauge values, histogram
	// quantiles, and the prop.* experiment observables). Same-seed runs
	// produce byte-identical CSV renderings of this set.
	Series *obs.SeriesSet
	// TraceDigest is the tracer's order-sensitive running digest;
	// TraceTotal counts emitted events.
	TraceDigest string
	TraceTotal  uint64
}

// RunPropagation executes the experiment and aggregates its events. The
// simulation polls ctx periodically and stops mid-run with ctx.Err()
// when cancelled.
func RunPropagation(ctx context.Context, cfg PropagationConfig) (*PropagationResult, error) {
	cfg = cfg.withDefaults()
	if cfg.NumReachable < 3 {
		return nil, fmt.Errorf("analysis: need at least 3 reachable nodes, got %d", cfg.NumReachable)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Observability: a registry for metrics (private unless the caller
	// supplies one), a tracer for propagation spans, and a sim-time
	// sampler ticking on the scheduler. The relay observations are
	// reconstructed from deliver.*/relay.* span events by a
	// PropagationTree attached as a synchronous tracer stream — ring
	// eviction cannot lose hops, and no per-experiment relay bookkeeping
	// is needed.
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	net := simnet.New(simnet.Config{
		Seed:    cfg.Seed,
		Latency: simnet.HashLatency(20*time.Millisecond, 120*time.Millisecond),
		Metrics: reg,
	})
	sched := net.Scheduler()
	genesis := propagationGenesis
	tracer := obs.NewTracer(0, net.Now)
	sampler := obs.NewSampler(reg, obs.DefaultSeriesCapacity)
	tree := obs.NewPropagationTree()
	var measuring bool
	tracer.AddStream(func(ev *obs.Event) {
		if measuring {
			tree.FeedStream(ev)
		}
	})
	if cfg.TraceSink != nil {
		tracer.AddStream(cfg.TraceSink)
	}
	mDepartures := reg.Counter("prop.churn.departures")
	mBlocksMined := reg.Counter("prop.blocks.mined")

	// Address plan: live reachable nodes plus a pool of dead addresses.
	addrs := make([]netip.AddrPort, cfg.NumReachable)
	for i := range addrs {
		addrs[i] = netip.AddrPortFrom(
			netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 8333)
	}
	dead := make([]netip.AddrPort, deadAddrPool(cfg.NumReachable))
	for i := range dead {
		dead[i] = netip.AddrPortFrom(
			netip.AddrFrom4([4]byte{172, byte(i >> 16), byte(i >> 8), byte(i)}), 8333)
	}

	res := &PropagationResult{}

	sink := node.SinkFunc(func(ev node.Event) {
		if !measuring {
			return
		}
		switch ev.Type {
		case node.EvDialAttempt:
			if ev.Dir == node.Feeler {
				res.FeelerAttempts++
			} else {
				res.DialAttempts++
			}
		case node.EvDialSuccess:
			if ev.Dir == node.Feeler {
				res.FeelerSuccesses++
			} else {
				res.DialSuccesses++
			}
		}
	})

	// Build hosts.
	hosts := make([]*simnet.Host, cfg.NumReachable)
	seedFor := func(self netip.AddrPort) []wire.NetAddress {
		seeds := make([]wire.NetAddress, 0, seedsPerNode)
		for len(seeds) < seedsPerNode {
			var a netip.AddrPort
			if rng.Float64() < addrReachableShare {
				a = addrs[rng.Intn(len(addrs))]
			} else {
				a = dead[rng.Intn(len(dead))]
			}
			if a == self {
				continue
			}
			seeds = append(seeds, wire.NetAddress{
				Addr: a, Services: wire.SFNodeNetwork, Timestamp: net.Now(),
			})
		}
		return seeds
	}
	for i, a := range addrs {
		compact := cfg.CompactBlocks && rng.Float64() < cfg.CompactShare
		cfgNode := node.Config{
			Self:          wire.NetAddress{Addr: a, Services: wire.SFNodeNetwork},
			Reachable:     true,
			Genesis:       genesis,
			SeedAddrs:     seedFor(a),
			CompactBlocks: compact,
			Policies:      cfg.Policies,
			BytesPerSec:   cfg.BytesPerSec,
			AddrManKey:    uint64(cfg.Seed) + uint64(i),
			Sink:          sink,
			Metrics:       reg,
			Tracer:        tracer,
		}
		if i == 0 {
			cfgNode.AddrSink = cfg.ObserverAddrSink
		}
		hosts[i] = net.AddFullNode(cfgNode)
	}
	for _, h := range hosts {
		h.Start()
	}

	// Unreachable (NATed) population: dial-out-only full nodes whose
	// addresses never work for inbound connections. Every rng draw here
	// is gated on numUnreach > 0 so that share-0 runs keep the legacy
	// draw order and stay byte-identical. Unreachable hosts are excluded
	// from the monitor, the churn driver, the sync denominator, and the
	// tx driver — they shape the relay fabric (and, under
	// unreachable-tx-relay, extend it) without being measured nodes.
	numUnreach := int(cfg.UnreachableShare*float64(cfg.NumReachable) + 0.5)
	res.NumUnreachable = numUnreach
	unreach := make([]*simnet.Host, 0, numUnreach)
	if numUnreach > 0 {
		for i := 0; i < numUnreach; i++ {
			a := netip.AddrPortFrom(
				netip.AddrFrom4([4]byte{11, byte(i >> 16), byte(i >> 8), byte(i)}), 8333)
			cfgNode := node.Config{
				Self:          wire.NetAddress{Addr: a, Services: wire.SFNodeNetwork},
				Reachable:     false,
				Genesis:       genesis,
				SeedAddrs:     seedFor(a),
				CompactBlocks: cfg.CompactBlocks,
				Policies:      cfg.Policies,
				BytesPerSec:   cfg.BytesPerSec,
				AddrManKey:    uint64(cfg.Seed) + uint64(cfg.NumReachable+i),
				Sink:          sink,
				Metrics:       reg,
				Tracer:        tracer,
			}
			h := net.AddFullNode(cfgNode)
			unreach = append(unreach, h)
			h.Start()
		}
	}

	// Bitnodes-style monitor: each host is revisited on its own cadence
	// (the real crawler's revisit interval varies per node with crawl
	// cycle length and reachability), recording its advertised height
	// and last-seen time.
	polled := make(map[netip.AddrPort]int32, len(hosts))
	lastSeen := make(map[netip.AddrPort]time.Time, len(hosts))
	for i := range hosts {
		h := hosts[i]
		interval := time.Duration(float64(pollInterval) * (0.5 + 2.0*rng.Float64()))
		var poll func()
		poll = func() {
			if n := h.Node(); n != nil {
				polled[h.Addr()] = n.Chain().Height()
				lastSeen[h.Addr()] = net.Now()
			}
			sched.After(interval, poll)
		}
		stagger := time.Duration(rng.Int63n(int64(interval)))
		sched.After(stagger, poll)
	}

	// Warmup: let the topology form.
	if err := sched.RunForCtx(ctx, cfg.Warmup); err != nil {
		return nil, err
	}
	measuring = true

	end := net.Now().Add(cfg.Duration)

	// Sim-time series sampling over the measured phase: the first tick
	// baselines counters at measurement start (its deltas absorb the
	// warmup), subsequent ticks ride the scheduler at syncSampleEvery.
	sampler.Tick(net.Now())
	stopSampling := sched.Every(syncSampleEvery, func() {
		sampler.Tick(net.Now())
	})
	defer stopSampling()

	// Churn driver: departures at the configured rate; departed hosts
	// rejoin after an exponential offline period with fresh node state.
	if cfg.ChurnDeparturesPer10Min > 0 {
		gap := time.Duration(float64(10*time.Minute) / cfg.ChurnDeparturesPer10Min)
		var churnTick func()
		churnTick = func() {
			if !net.Now().Before(end) {
				return
			}
			// Pick a random online non-observer host to stop.
			for try := 0; try < 10; try++ {
				h := hosts[1+rng.Intn(len(hosts)-1)]
				if !h.Online() {
					continue
				}
				h.Stop()
				mDepartures.Inc()
				cfgNode := h.Config()
				cfgNode.SeedAddrs = seedFor(cfgNode.Self.Addr)
				h.SetConfig(cfgNode)
				off := time.Duration(rng.ExpFloat64() * float64(rejoinAfter))
				sched.After(off, h.Start)
				break
			}
			sched.After(time.Duration(rng.ExpFloat64()*float64(gap)), churnTick)
		}
		sched.After(time.Duration(rng.ExpFloat64()*float64(gap)), churnTick)
	}

	// Background transactions: TxPerBlock submissions per block interval.
	if cfg.TxPerBlock > 0 {
		txGap := blockInterval / time.Duration(cfg.TxPerBlock)
		txCounter := uint32(0)
		var txTick func()
		txTick = func() {
			if !net.Now().Before(end) {
				return
			}
			h := hosts[rng.Intn(len(hosts))]
			if n := h.Node(); n != nil {
				txCounter++
				tx := &wire.MsgTx{
					Version: 2,
					TxIn: []wire.TxIn{{
						PreviousOutPoint: wire.OutPoint{Index: txCounter},
						SignatureScript:  []byte{byte(txCounter), byte(txCounter >> 8), byte(txCounter >> 16), byte(txCounter >> 24)},
						Sequence:         0xffffffff,
					}},
					TxOut: []wire.TxOut{{Value: int64(txCounter) * 100, PkScript: []byte{0x51}}},
				}
				n.SubmitTx(tx)
			}
			sched.After(time.Duration(rng.ExpFloat64()*float64(txGap)), txTick)
		}
		sched.After(0, txTick)
	}

	// Synchronization sampler: fixed cadence, like the Bitnodes feed.
	var syncSample func()
	syncSample = func() {
		if !net.Now().Before(end) {
			return
		}
		best := int32(-1)
		var online, atTip, outSum int
		for _, h := range hosts {
			n := h.Node()
			if n == nil {
				continue
			}
			if hh := n.Chain().Height(); hh > best {
				best = hh
			}
		}
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
		if online > 0 {
			ratio := float64(atTip) / float64(online)
			outdeg := float64(outSum) / float64(online)
			res.SyncSamples = append(res.SyncSamples, ratio)
			res.MeanOutdegree += outdeg
			sampler.Observe(net.Now(), "prop.sync.ratio", ratio)
			sampler.Observe(net.Now(), "prop.outdegree.mean", outdeg)
		}
		// Observed synchronization: listed nodes whose last-polled
		// height matches the tip.
		var listed, observedSynced int
		now := net.Now()
		for _, h := range hosts {
			seen, ever := lastSeen[h.Addr()]
			if !ever {
				continue
			}
			if !h.Online() && now.Sub(seen) > listingTTL {
				continue
			}
			listed++
			if polled[h.Addr()] == best {
				observedSynced++
			}
		}
		if listed > 0 {
			observed := float64(observedSynced) / float64(listed)
			res.ObservedSyncSamples = append(res.ObservedSyncSamples, observed)
			sampler.Observe(now, "prop.sync.observed.ratio", observed)
		}
		sched.After(syncSampleEvery, syncSample)
	}
	sched.After(syncSampleEvery, syncSample)

	// Mining driver: the block schedule is precomputed from a dedicated
	// random stream, so two runs with the same seed see identical block
	// times regardless of churn — common random numbers that make regime
	// contrasts (Figure 1) directly comparable.
	blockRng := rand.New(rand.NewSource(cfg.Seed ^ 0x0b10c0))
	var blockTimes []time.Time
	for t := net.Now().Add(time.Duration(blockRng.ExpFloat64() * float64(blockInterval))); t.Before(end); t = t.Add(time.Duration(blockRng.ExpFloat64() * float64(blockInterval))) {
		blockTimes = append(blockTimes, t)
	}
	for _, bt := range blockTimes {
		sched.At(bt, func() {
			best := int32(-1)
			for _, h := range hosts {
				if n := h.Node(); n != nil {
					if hh := n.Chain().Height(); hh > best {
						best = hh
					}
				}
			}
			for try := 0; try < 20; try++ {
				h := hosts[rng.Intn(len(hosts))]
				n := h.Node()
				if n == nil || n.Chain().Height() != best {
					continue
				}
				if _, err := n.MineBlock(2000); err == nil {
					res.BlocksMined++
					mBlocksMined.Inc()
				}
				break
			}
		})
	}

	if err := sched.RunUntilCtx(ctx, end); err != nil {
		return nil, err
	}
	measuring = false

	// Degree ground truth for the Grundmann estimator: the final addrman
	// size of every host still online.
	if cfg.ObserverAddrSink != nil {
		res.AddrManSizes = make(map[netip.AddrPort]int, len(hosts)+len(unreach))
		for _, h := range hosts {
			if n := h.Node(); n != nil {
				res.AddrManSizes[h.Addr()] = n.AddrMan().Size()
			}
		}
		for _, h := range unreach {
			if n := h.Node(); n != nil {
				res.AddrManSizes[h.Addr()] = n.AddrMan().Size()
			}
		}
	}

	// Derive the relay observations from the propagation tree: the
	// per-(node, object) last-delay/fanout aggregates are keyed by the
	// node's delivery span, and RelayStats already returns them in the
	// deterministic (delay, node, fanout) order the figure pipelines
	// consume.
	res.BlockRelays = relayObservations(tree.RelayStats(obs.KindRelayBlock))
	res.TxRelays = relayObservations(tree.RelayStats(obs.KindRelayTx))
	if len(res.SyncSamples) > 0 {
		res.MeanOutdegree /= float64(len(res.SyncSamples))
	}
	tracer.Publish(reg)
	res.Series = sampler.Set()
	res.TraceDigest = tracer.Digest()
	res.TraceTotal = tracer.Total()
	return res, nil
}

// relayObservations converts span-derived relay aggregates into the
// result's observation records.
func relayObservations(stats []obs.RelayStat) []RelayObservation {
	if len(stats) == 0 {
		return nil
	}
	out := make([]RelayObservation, len(stats))
	for i, st := range stats {
		out[i] = RelayObservation{
			Node: st.Node, LastDelay: st.LastDelay, Fanout: st.Fanout,
		}
	}
	return out
}

// propagationGenesis is shared by all propagation experiments.
var propagationGenesis = func() *wire.MsgBlock {
	return chainGenesis("propagation")
}()
