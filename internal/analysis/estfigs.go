package analysis

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"repro/internal/crawler"
	"repro/internal/estimate"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/par"
)

// This file implements the estimator validation lab (ROADMAP item 4,
// the fig_est_* family): the Grundmann unreachable-population and
// peer-degree estimators run as observers on crawls over universes
// whose true population and true per-station out-degree are known, and
// their error is reported across a churn × flooder × NAT-mix grid —
// an experiment family no live-network measurement could produce.

// EstFigsConfig parameterizes the estimator sweep.
type EstFigsConfig struct {
	// Base is the universe calibration every grid cell derives from.
	// Each cell overrides the churn, flooder, and responsive-mix knobs,
	// reseeds itself deterministically from Base.Seed, and truncates the
	// horizon to Rounds crawl intervals.
	Base netgen.Params
	// Rounds is the number of crawl experiments per cell.
	Rounds int
	// Workers is the fan-out width across grid cells (0 = GOMAXPROCS);
	// each cell's inner crawl fans out with the same width. Results are
	// byte-identical at any width: cells land in private slots merged in
	// grid order, and the crawl itself is order-invariant.
	Workers int
}

// EstCell is one grid cell's estimator-error outcome. All means are
// across the cell's rounds (population) or across every observed
// source in every round (degree); relative errors use the
// zero-observation-safe estimate.RelativeError convention.
type EstCell struct {
	// Name is the compact cell label ("low-f0-r15": low churn, no
	// flooders, 15% responsive mix).
	Name string
	// Churn labels the churn regime ("low" or "high").
	Churn string
	// Flooders is the unscaled malicious-node count planted in the cell.
	Flooders int
	// ResponsiveMix is the NAT/silent split of the unreachable
	// population.
	ResponsiveMix float64
	// Seed is the cell's derived universe seed.
	Seed int64
	// Rounds is the number of crawl rounds run.
	Rounds int

	// PopTruthMean and PopEstMean average the true gossip-visible
	// unreachable population and its announcement-recurrence estimate
	// over the rounds; PopRelErr is the mean per-round relative error.
	PopTruthMean, PopEstMean, PopRelErr float64
	// Observations is the total number of counted announcement draws.
	Observations int

	// DegTruthMean and DegEstMean average the true distinct-address
	// degree and its address-return-sampling estimate over every
	// (source, round) pair; DegRelErr is the mean per-source relative
	// error and DegRatioRelErr the same for the single-exchange ratio
	// probe.
	DegTruthMean, DegEstMean, DegRelErr, DegRatioRelErr float64
	// Sources is the number of (source, round) pairs measured.
	Sources int
}

// EstFigsResult aggregates the sweep.
type EstFigsResult struct {
	// Cells holds the grid in deterministic grid order (churn-major).
	Cells []EstCell
	// Series holds per-round error time-series, cell-qualified
	// (est.pop.relerr.<cell>, est.deg.relerr.<cell>, …); the first cell
	// additionally carries the est.* counter-delta series from its
	// metrics registry.
	Series *obs.SeriesSet
}

// estCellSpec is one point of the sweep grid.
type estCellSpec struct {
	churn    string
	flooders bool
	respMix  float64
}

// estGrid returns the churn × flooder × NAT-mix grid in deterministic
// order.
func estGrid() []estCellSpec {
	var out []estCellSpec
	for _, churn := range []string{"low", "high"} {
		for _, flooders := range []bool{false, true} {
			for _, mix := range []float64{0.15, 0.40} {
				out = append(out, estCellSpec{churn: churn, flooders: flooders, respMix: mix})
			}
		}
	}
	return out
}

// cellParams derives one cell's universe calibration.
func cellParams(base netgen.Params, spec estCellSpec, idx, rounds int) netgen.Params {
	p := base
	// Deterministic per-cell seed: cells are independent universes, not
	// replications of one.
	p.Seed = base.Seed + int64(idx+1)*7919
	p.Horizon = time.Duration(rounds) * p.CrawlInterval
	if spec.churn == "low" {
		// The 2019-style regime: longer sessions, fewer flappers, half
		// the arrival churn on both sides of the reachability split.
		p.MeanSessionOn = 24 * 24 * time.Hour
		p.MeanSessionOff = 48 * 24 * time.Hour
		p.FlapperFraction = 0.06
		p.FreshPerDay = 90
		p.UnreachablePerDay = base.UnreachablePerDay / 2
	}
	if !spec.flooders {
		p.MaliciousCount = 0
		p.MaliciousInAS3320 = 0
		p.MaliciousHeavyCount = 0
	}
	p.ResponsiveFraction = spec.respMix
	return p
}

// cellName renders the compact cell label.
func cellName(spec estCellSpec, p netgen.Params) string {
	return fmt.Sprintf("%s-f%d-r%.0f", spec.churn, p.MaliciousCount, spec.respMix*100)
}

// RunEstFigs runs the estimator sweep: every grid cell generates its
// universe, runs Rounds crawls with an estimate.Collector attached
// through the crawler's Observer seam, and scores both estimators
// against the simulator's ground truth.
func RunEstFigs(ctx context.Context, cfg EstFigsConfig) (*EstFigsResult, error) {
	if cfg.Rounds < 1 {
		cfg.Rounds = 1
	}
	grid := estGrid()
	cells := make([]EstCell, len(grid))
	sets := make([]*obs.SeriesSet, len(grid))
	err := par.ForEach(ctx, par.Workers(cfg.Workers), len(grid), func(ctx context.Context, i int) error {
		cell, set, err := runEstCell(ctx, cfg, grid[i], i)
		if err != nil {
			return fmt.Errorf("analysis: est cell %d (%s): %w", i, grid[i].churn, err)
		}
		cells[i], sets[i] = cell, set
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &EstFigsResult{Cells: cells, Series: obs.MergeSeriesSets(sets...)}, nil
}

// runEstCell runs one grid cell.
func runEstCell(ctx context.Context, cfg EstFigsConfig, spec estCellSpec, idx int) (EstCell, *obs.SeriesSet, error) {
	params := cellParams(cfg.Base, spec, idx, cfg.Rounds)
	cell := EstCell{
		Name:          cellName(spec, params),
		Churn:         spec.churn,
		Flooders:      params.MaliciousCount,
		ResponsiveMix: spec.respMix,
		Seed:          params.Seed,
		Rounds:        cfg.Rounds,
	}
	u, err := netgen.Generate(params)
	if err != nil {
		return cell, nil, err
	}

	// The first cell carries a metrics registry so the est.* counter
	// deltas land in the merged series exactly once; qualified per-cell
	// series never collide across cells. The registry is deliberately
	// NOT shared with the crawler: its crawl.workers gauge reflects the
	// fan-out width and would break worker-count invariance.
	var reg *obs.Registry
	if idx == 0 {
		reg = obs.NewRegistry()
	}
	sampler := obs.NewSampler(reg, 0)

	var popRelSum float64
	var degTruthSum, degEstSum, degRelSum, degRatioRelSum float64
	for i := 0; i < cfg.Rounds; i++ {
		if err := ctx.Err(); err != nil {
			return cell, nil, err
		}
		at := params.Epoch.Add(time.Duration(i) * params.CrawlInterval)
		view := crawler.NewUniverseView(u, at)
		seedView := u.SeedViewAt(at)
		targets := crawler.TargetsOf(seedView)
		known := crawler.ReachableReference(seedView)

		// Fresh collector per round: books are resampled every crawl
		// interval and the population churns, so each round is an
		// independent measurement of that round's truth.
		col := estimate.NewCollector(estimate.Config{
			IsReachable: func(a netip.AddrPort) bool { _, ok := known[a]; return ok },
			Metrics:     reg,
		})
		c := crawler.New(crawler.Config{
			Workers:  cfg.Workers,
			Index:    u.Index,
			Observer: func(ex crawler.Exchange) { col.Exchange(ex.Source, ex.Addrs) },
		}, view)
		if _, err := c.Crawl(ctx, at, targets, known); err != nil {
			return cell, nil, err
		}

		// Population scoring against the true visible census.
		popTruth := float64(view.VisibleCount())
		popEst := col.PopulationEstimate()
		popRel := estimate.RelativeError(popEst, popTruth)
		cell.PopTruthMean += popTruth
		cell.PopEstMean += popEst
		popRelSum += popRel
		cell.Observations += col.Pop.Total()

		// Degree scoring: every crawled source against its true
		// distinct-address book degree at this round.
		online := u.OnlineReachable(at)
		visible := u.VisibleUnreachable(at)
		for _, sd := range col.Deg.Estimates() {
			id, ok := u.Index.Lookup(sd.Source)
			if !ok {
				continue
			}
			truth := float64(u.TrueDegreeFrom(id, at, online, visible))
			degTruthSum += truth
			degEstSum += sd.Estimate
			degRelSum += estimate.RelativeError(sd.Estimate, truth)
			degRatioRelSum += estimate.RelativeError(sd.Ratio, truth)
			cell.Sources++
		}

		sampler.Observe(at, "est.pop.truth."+cell.Name, popTruth)
		sampler.Observe(at, "est.pop.estimate."+cell.Name, popEst)
		sampler.Observe(at, "est.pop.relerr."+cell.Name, popRel)
		if cell.Sources > 0 {
			sampler.Observe(at, "est.deg.relerr."+cell.Name, degRelSum/float64(cell.Sources))
		}
		sampler.Tick(at)
	}

	r := float64(cell.Rounds)
	cell.PopTruthMean /= r
	cell.PopEstMean /= r
	cell.PopRelErr = popRelSum / r
	if cell.Sources > 0 {
		n := float64(cell.Sources)
		cell.DegTruthMean = degTruthSum / n
		cell.DegEstMean = degEstSum / n
		cell.DegRelErr = degRelSum / n
		cell.DegRatioRelErr = degRatioRelSum / n
	}
	return cell, sampler.Set(), nil
}
