package analysis

import (
	"context"
	"fmt"
	"time"

	"repro/internal/par"
	"repro/internal/stats"
)

// Fig1Config parameterizes the headline synchronization-contrast
// experiment: two network regimes identical except for churn among
// synchronized nodes, which doubled between 2019 and 2020 (§IV-D).
type Fig1Config struct {
	// Seed drives both regimes (offset for the second).
	Seed int64
	// NumReachable is the per-regime network size. The churn rates below
	// are expressed at this scale; the paper's absolute rates apply to
	// its ~10K-node network.
	NumReachable int
	// Duration is the measured phase per regime.
	Duration time.Duration
	// Churn2019 and Churn2020 are synchronized-node departures per
	// 10 minutes (the paper measured 3.9 and 7.6 on the full network;
	// at reduced scale the same 1:2 ratio is applied to proportionally
	// larger per-node rates so the contrast is resolvable).
	Churn2019 float64
	Churn2020 float64
	// Replications runs each regime several times with paired seeds and
	// pools the samples: per-run synchronization means carry ±3-point
	// noise from topology randomness, while the regime *difference* is
	// stable within a pair (default 3).
	Replications int
	// Workers is the fan-out width across replications (0 = GOMAXPROCS).
	// Results are identical at any width.
	Workers int
}

// fig1TxPerBlock is the background transaction load of both regimes.
const fig1TxPerBlock = 30

func (c Fig1Config) withDefaults() Fig1Config {
	if c.NumReachable == 0 {
		c.NumReachable = 80
	}
	if c.Duration == 0 {
		c.Duration = 6 * time.Hour
	}
	if c.Churn2019 == 0 {
		c.Churn2019 = 1.0
	}
	if c.Churn2020 == 0 {
		c.Churn2020 = 2.0
	}
	if c.Replications == 0 {
		c.Replications = 3
	}
	return c
}

// RegimeSync is one year's synchronization distribution.
type RegimeSync struct {
	// Samples are per-block observed synchronization fractions (0–1).
	Samples []float64
	// Mean and Median summarize Samples (paper: 72.02% / 80.38% in
	// 2019, 61.91% / 65.47% in 2020).
	Mean, Median float64
	// Grid and Density trace the kernel density estimate over [0, 1].
	Grid, Density []float64
}

// Fig1Result contrasts the two regimes.
type Fig1Result struct {
	// Y2019 and Y2020 are the regime distributions.
	Y2019, Y2020 RegimeSync
}

// summarizeRegime folds per-block samples into a RegimeSync.
func summarizeRegime(samples []float64) (RegimeSync, error) {
	if len(samples) == 0 {
		return RegimeSync{}, fmt.Errorf("analysis: no synchronization samples")
	}
	s, err := stats.Summarize(samples)
	if err != nil {
		return RegimeSync{}, err
	}
	kde, err := stats.NewKDE(samples, 0)
	if err != nil {
		return RegimeSync{}, err
	}
	grid := stats.Grid(0, 1, 201)
	return RegimeSync{
		Samples: samples,
		Mean:    s.Mean,
		Median:  s.Median,
		Grid:    grid,
		Density: kde.Evaluate(grid),
	}, nil
}

// RunFig1 runs both regimes and returns their synchronization
// distributions. Replications fan out over cfg.Workers (par.ForEach),
// each on its own paired seed and simulator; samples are pooled in
// replication order, so the result is identical at any width.
func RunFig1(ctx context.Context, cfg Fig1Config) (*Fig1Result, error) {
	cfg = cfg.withDefaults()
	base := PropagationConfig{
		Seed:         cfg.Seed,
		NumReachable: cfg.NumReachable,
		Duration:     cfg.Duration,
		TxPerBlock:   fig1TxPerBlock,
	}

	// Within each replication the two regimes run with the same seed:
	// the precomputed block schedule and topology are identical, so the
	// contrast isolates the churn difference (common random numbers).
	// Replications with different seeds are pooled.
	run := func(ctx context.Context, churn float64, seed int64) ([]float64, error) {
		pc := base
		pc.Seed = seed
		pc.ChurnDeparturesPer10Min = churn
		res, err := RunPropagation(ctx, pc)
		if err != nil {
			return nil, err
		}
		return res.ObservedSyncSamples, nil
	}

	rep19 := make([][]float64, cfg.Replications)
	rep20 := make([][]float64, cfg.Replications)
	err := par.ForEach(ctx, par.Workers(cfg.Workers), cfg.Replications, func(ctx context.Context, r int) error {
		seed := cfg.Seed + int64(r)*7919
		s19, err := run(ctx, cfg.Churn2019, seed)
		if err != nil {
			return fmt.Errorf("analysis: 2019 regime (rep %d): %w", r, err)
		}
		s20, err := run(ctx, cfg.Churn2020, seed)
		if err != nil {
			return fmt.Errorf("analysis: 2020 regime (rep %d): %w", r, err)
		}
		rep19[r], rep20[r] = s19, s20
		return nil
	})
	if err != nil {
		return nil, err
	}
	var samples19, samples20 []float64
	for r := 0; r < cfg.Replications; r++ {
		samples19 = append(samples19, rep19[r]...)
		samples20 = append(samples20, rep20[r]...)
	}
	y19, err := summarizeRegime(samples19)
	if err != nil {
		return nil, err
	}
	y20, err := summarizeRegime(samples20)
	if err != nil {
		return nil, err
	}
	return &Fig1Result{Y2019: y19, Y2020: y20}, nil
}
