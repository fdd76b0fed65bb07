package analysis

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"repro/internal/estimate"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/wire"
)

// This file implements the intervention grid: every §V refinement (and
// the related-work remedies) expressed as a node.PolicySet, swept
// against churn regime and unreachable-population mix on a common
// random-number environment. Each (churn, mix) environment reuses one
// seed across all policy sets, so a policy's recovery is a paired
// contrast against stock under the identical workload — the same
// common-random-numbers discipline the Figure 1 regime comparison uses.

// IntervChurn labels one churn regime of the grid.
type IntervChurn struct {
	// Name labels the regime ("2019", "2020").
	Name string
	// DeparturesPer10Min is the synchronized-node departure rate driven
	// through the propagation run (already scaled to the network size).
	DeparturesPer10Min float64
}

// InterventionGridConfig parameterizes the sweep.
type InterventionGridConfig struct {
	// Base is the propagation environment every cell derives from. Its
	// Seed anchors the per-environment seeds; its ChurnDeparturesPer10Min,
	// UnreachableShare, Policies, and Metrics fields are overridden per
	// cell (Metrics must stay nil — cells run concurrently).
	Base PropagationConfig
	// PolicySets is the intervention axis, swept in slice order.
	// Empty selects DefaultPolicySets.
	PolicySets []node.PolicySet
	// Churns is the churn axis. Empty selects the paper's 2019/2020
	// regimes scaled to Base.NumReachable.
	Churns []IntervChurn
	// UnreachableShares is the population-mix axis: each entry adds
	// round(share·NumReachable) unreachable nodes. Empty selects
	// {0, 0.3}.
	UnreachableShares []float64
	// ColdStartRuns is the number of cold-start connection runs per cell
	// (0 disables the cold-start column; the cold-start network halves
	// Base.NumReachable and needs at least 16 reachable nodes).
	ColdStartRuns int
	// Workers is the fan-out width across cells (0 = GOMAXPROCS).
	// Results are byte-identical at any width: cells land in private
	// index slots merged in grid order.
	Workers int
}

// DefaultPolicySets is the canonical intervention axis: stock, each §V
// refinement alone, the two related-work remedies, and the combined §V
// set.
func DefaultPolicySets() []node.PolicySet {
	return []node.PolicySet{
		node.MustPolicySet(node.StockPolicyName),
		node.MustPolicySet("tried-only-addr"),
		node.MustPolicySet("horizon-17d"),
		node.MustPolicySet("priority-relay"),
		node.MustPolicySet("unreachable-tx-relay"),
		node.MustPolicySet("churn-resilient-peering"),
		node.MustPolicySet("tried-only-addr+horizon-17d+priority-relay"),
	}
}

// IntervCell is one grid cell's outcome.
type IntervCell struct {
	// Name is the compact cell label ("<set>.<churn>.u<pct>").
	Name string
	// PolicySet is the canonical policy-set encoding.
	PolicySet string
	// Churn names the churn regime.
	Churn string
	// UnreachableShare is the population-mix axis value.
	UnreachableShare float64
	// Seed is the cell's environment seed (shared across policy sets
	// within the same churn × mix environment).
	Seed int64

	// MeanSync and MeanObservedSync are the Figure 1 metrics: the true
	// at-tip fraction and the Bitnodes-style observed one.
	MeanSync, MeanObservedSync float64
	// DialSuccessRate is network-wide outbound successes/attempts.
	DialSuccessRate float64
	// ColdStartSuccessRate is the fresh-node dial success rate under
	// this cell's policies (0 when ColdStartRuns is 0).
	ColdStartSuccessRate float64
	// MeanBlockRelay and MaxBlockRelay summarize last-connection block
	// relay delays.
	MeanBlockRelay, MaxBlockRelay time.Duration
	// MeanOutdegree is the average outbound connection count.
	MeanOutdegree float64
	// NumUnreachable is the number of unreachable nodes the cell ran.
	NumUnreachable int

	// PopTruth and PopEst are the gossip-visible non-reachable address
	// population (dead pool + unreachable nodes) and its Grundmann
	// announcement-recurrence estimate from the observer's ADDR intake;
	// PopRelErr is the relative error.
	PopTruth, PopEst, PopRelErr float64
	// DegTruthMean, DegEstMean, and DegRelErr score the GETADDR
	// return-sampling degree estimator against the final addrman sizes
	// of the observer's sources; Sources counts scored sources.
	DegTruthMean, DegEstMean, DegRelErr float64
	Sources                             int
}

// InterventionGridResult aggregates the sweep.
type InterventionGridResult struct {
	// Cells holds the grid in deterministic order: policy-set major,
	// then churn, then unreachable share.
	Cells []IntervCell
	// Series carries each cell's synchronization trajectories under
	// cell-qualified names (interv.sync.<cell>, interv.sync.observed.<cell>).
	Series *obs.SeriesSet
}

// intervCellSpec is one grid point.
type intervCellSpec struct {
	set   node.PolicySet
	churn IntervChurn
	share float64
	seed  int64
}

// intervGrid expands the axes into cell specs in deterministic order and
// assigns the per-environment seeds.
func intervGrid(cfg InterventionGridConfig) []intervCellSpec {
	var out []intervCellSpec
	for _, set := range cfg.PolicySets {
		for ci, churn := range cfg.Churns {
			for si, share := range cfg.UnreachableShares {
				envIdx := ci*len(cfg.UnreachableShares) + si
				out = append(out, intervCellSpec{
					set:   set,
					churn: churn,
					share: share,
					// One seed per (churn, mix) environment, shared by
					// every policy set: paired contrasts.
					seed: cfg.Base.Seed + int64(envIdx)*7919,
				})
			}
		}
	}
	return out
}

// intervCellName renders the compact cell label.
func intervCellName(spec intervCellSpec) string {
	return fmt.Sprintf("%s.%s.u%.0f", spec.set.String(), spec.churn.Name, spec.share*100)
}

// RunInterventionGrid executes the sweep. Cells fan out via par.ForEach
// into index slots and merge in grid order, so the result is
// byte-identical at any worker count.
func RunInterventionGrid(ctx context.Context, cfg InterventionGridConfig) (*InterventionGridResult, error) {
	if len(cfg.PolicySets) == 0 {
		cfg.PolicySets = DefaultPolicySets()
	}
	if len(cfg.Churns) == 0 {
		cfg.Churns = []IntervChurn{
			{Name: "2019", DeparturesPer10Min: 0.9 * float64(cfg.Base.NumReachable) / 80},
			{Name: "2020", DeparturesPer10Min: 3.0 * float64(cfg.Base.NumReachable) / 80},
		}
	}
	if len(cfg.UnreachableShares) == 0 {
		cfg.UnreachableShares = []float64{0, 0.3}
	}
	if cfg.Base.Metrics != nil {
		return nil, fmt.Errorf("analysis: intervention grid cells must own their registries (Base.Metrics set)")
	}
	grid := intervGrid(cfg)
	cells := make([]IntervCell, len(grid))
	sets := make([]*obs.SeriesSet, len(grid))
	err := par.ForEach(ctx, par.Workers(cfg.Workers), len(grid), func(ctx context.Context, i int) error {
		cell, set, err := runIntervCell(ctx, cfg, grid[i])
		if err != nil {
			return fmt.Errorf("analysis: interv cell %s: %w", intervCellName(grid[i]), err)
		}
		cells[i], sets[i] = cell, set
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &InterventionGridResult{Cells: cells, Series: obs.MergeSeriesSets(sets...)}, nil
}

// runIntervCell runs one grid cell: the propagation experiment with the
// Grundmann estimators riding the observer's ADDR intake, plus the
// optional cold-start connection experiment.
func runIntervCell(ctx context.Context, cfg InterventionGridConfig, spec intervCellSpec) (IntervCell, *obs.SeriesSet, error) {
	cell := IntervCell{
		Name:             intervCellName(spec),
		PolicySet:        spec.set.String(),
		Churn:            spec.churn.Name,
		UnreachableShare: spec.share,
		Seed:             spec.seed,
	}
	// The estimators observe through the propagation run's observer
	// node: every multi-address ADDR payload it ingests is a GETADDR
	// response chunk from one of its peers.
	col := estimate.NewCollector(estimate.Config{
		// The reachable plan uses 10.0.0.0/8; the dead pool (172/8) and
		// the unreachable nodes (11/8) are the hidden population.
		IsReachable: func(a netip.AddrPort) bool { return a.Addr().As4()[0] == 10 },
	})
	pcfg := cfg.Base
	pcfg.Seed = spec.seed
	pcfg.ChurnDeparturesPer10Min = spec.churn.DeparturesPer10Min
	pcfg.UnreachableShare = spec.share
	pcfg.Policies = spec.set
	pcfg.ObserverAddrSink = func(from netip.AddrPort, addrs []wire.NetAddress) {
		col.Exchange(from, addrs)
	}
	out, err := RunPropagation(ctx, pcfg)
	if err != nil {
		return cell, nil, err
	}

	cell.NumUnreachable = out.NumUnreachable
	cell.MeanOutdegree = out.MeanOutdegree
	if len(out.SyncSamples) > 0 {
		cell.MeanSync = stats.Mean(out.SyncSamples)
	}
	sum := summarizePropagation(out)
	cell.MeanObservedSync = sum.meanObservedSync
	cell.DialSuccessRate = sum.dialSuccessRate
	cell.MeanBlockRelay = sum.meanBlockRelay
	cell.MaxBlockRelay = sum.maxBlockRelay

	// Population scoring: the gossip-visible non-reachable population is
	// the dead address pool plus the unreachable nodes (which enter
	// gossip by self-advertisement).
	cell.PopTruth = float64(deadAddrPool(pcfg.NumReachable) + out.NumUnreachable)
	cell.PopEst = col.PopulationEstimate()
	cell.PopRelErr = estimate.RelativeError(cell.PopEst, cell.PopTruth)

	// Degree scoring against the final addrman sizes (the run's ground
	// truth for each source's table size).
	var degTruthSum, degEstSum, degRelSum float64
	for _, sd := range col.Deg.Estimates() {
		truth, ok := out.AddrManSizes[sd.Source]
		if !ok {
			continue
		}
		degTruthSum += float64(truth)
		degEstSum += sd.Estimate
		degRelSum += estimate.RelativeError(sd.Estimate, float64(truth))
		cell.Sources++
	}
	if cell.Sources > 0 {
		n := float64(cell.Sources)
		cell.DegTruthMean = degTruthSum / n
		cell.DegEstMean = degEstSum / n
		cell.DegRelErr = degRelSum / n
	}

	// Cold-start connection experiment under this cell's policies and
	// churn (where the addressing and peering policies bite).
	if cfg.ColdStartRuns > 0 {
		cold, err := RunConnExperiment(ctx, ConnExperimentConfig{
			Seed:              spec.seed,
			LivePeers:         cfg.Base.NumReachable / 2,
			Duration:          5 * time.Minute,
			PeerChurnPer10Min: spec.churn.DeparturesPer10Min,
			ConnDropEvery:     40 * time.Second,
			Policies:          spec.set,
			Runs:              cfg.ColdStartRuns,
		})
		if err != nil {
			return cell, nil, err
		}
		cell.ColdStartSuccessRate = cold.SuccessRate
	}

	// Cell-qualified sync trajectories, extracted from the run's series
	// so the merged set never collides across cells.
	set := &obs.SeriesSet{}
	for _, ren := range []struct{ from, to string }{
		{"prop.sync.ratio", "interv.sync." + cell.Name},
		{"prop.sync.observed.ratio", "interv.sync.observed." + cell.Name},
	} {
		if s, ok := out.Series.Get(ren.from); ok {
			pts := make([]obs.Point, len(s.Points))
			copy(pts, s.Points)
			set.Series = append(set.Series, obs.Series{Name: ren.to, Points: pts})
		}
	}
	sort.Slice(set.Series, func(i, j int) bool { return set.Series[i].Name < set.Series[j].Name })
	return cell, set, nil
}
