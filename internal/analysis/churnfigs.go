package analysis

import (
	"context"
	"fmt"
	"time"

	"repro/internal/churn"
	"repro/internal/netgen"
	"repro/internal/obs"
)

// This file implements the §IV-D churn figures over the snapshot-level
// universe: the presence matrix (Figure 12), the daily arrival/departure
// series (Figure 13), and the synchronized-departure contrast between the
// 2019 and 2020 regimes.

// ChurnFigsConfig parameterizes the churn study.
type ChurnFigsConfig struct {
	// Params calibrates the universe (2020 by default).
	Params netgen.Params
}

// ChurnFigsResult aggregates Figures 12 and 13.
type ChurnFigsResult struct {
	// Matrix is the Figure 12 presence matrix.
	Matrix *churn.Matrix
	// PersistentCount is the number of always-present nodes
	// (paper: 3,034).
	PersistentCount int
	// MeanLifetime is the average per-node presence (paper: 16.6 days,
	// the basis of the §V 17-day eviction proposal).
	MeanLifetime time.Duration
	// DailyDepartures and DailyArrivals are the Figure 13 series.
	DailyDepartures, DailyArrivals []int
	// MeanDailyDepartures and MeanDailyArrivals summarize them
	// (paper: ≈708 ≈ 8.6% of the network).
	MeanDailyDepartures, MeanDailyArrivals float64
	// DepartureSharePct is departures over the steady network size, in
	// percent (paper: 8.6%).
	DepartureSharePct float64
	// UniqueAddresses is the matrix row count (paper: 28,781).
	UniqueAddresses int
	// Series renders the Figure 13 daily series in the common timeseries
	// shape (churn.daily.departures / churn.daily.arrivals, one point per
	// day from the universe epoch) for CSV sidecars and the HTML report.
	Series *obs.SeriesSet
}

// RunChurnFigs builds the universe, the matrix, and the daily series.
func RunChurnFigs(ctx context.Context, cfg ChurnFigsConfig) (*ChurnFigsResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	u, err := netgen.Generate(cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("analysis: generate universe: %w", err)
	}
	// Figures 12 and 13 share one matrix of daily snapshots (daily keeps
	// the matrix readable; the paper sampled at 10 minutes).
	m := churn.FromUniverse(u, 24*time.Hour)
	tr := m.Transitions()

	res := &ChurnFigsResult{
		Matrix:              m,
		PersistentCount:     m.PersistentCount(),
		MeanLifetime:        m.MeanLifetime(),
		DailyDepartures:     tr.Departures,
		DailyArrivals:       tr.Arrivals,
		MeanDailyDepartures: tr.MeanDepartures(),
		MeanDailyArrivals:   tr.MeanArrivals(),
		UniqueAddresses:     m.Rows(),
	}
	steady := cfg.Params.Scale * float64(netgen.SteadyReachable)
	if steady > 0 {
		res.DepartureSharePct = 100 * res.MeanDailyDepartures / steady
	}
	res.Series = churnSeries(tr)
	return res, nil
}

// churnSeries converts the daily transition counts into the shared
// timeseries shape. Day k is stamped k days after the Unix epoch — the
// universe is synthetic, so only the spacing carries meaning, and a
// fixed origin keeps the CSV rendering deterministic.
func churnSeries(tr *churn.Transitions) *obs.SeriesSet {
	epoch := time.Unix(0, 0).UTC()
	mk := func(name string, counts []int) obs.Series {
		s := obs.Series{Name: name, Points: make([]obs.Point, len(counts))}
		for i, v := range counts {
			s.Points[i] = obs.Point{T: epoch.Add(time.Duration(i+1) * 24 * time.Hour), V: float64(v)}
		}
		return s
	}
	return &obs.SeriesSet{Series: []obs.Series{
		mk("churn.daily.arrivals", tr.Arrivals),
		mk("churn.daily.departures", tr.Departures),
	}}
}

// SyncDepResult contrasts synchronized-node departures between the two
// regimes (§IV-D: 3.9/10 min in 2019 vs 7.6/10 min in 2020).
type SyncDepResult struct {
	// Rate2019 and Rate2020 are mean synchronized departures per
	// sampling interval.
	Rate2019, Rate2020 float64
	// Ratio is Rate2020 / Rate2019 (paper: ≈2).
	Ratio float64
	// Interval is the sampling cadence used.
	Interval time.Duration
}

// RunSyncDepartures measures both regimes at the given cadence (the
// paper's Bitnodes feed is 10-minutely; coarser cadences run faster with
// proportional counts).
func RunSyncDepartures(ctx context.Context, seed int64, scale float64, interval time.Duration) (*SyncDepResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if interval == 0 {
		interval = 10 * time.Minute
	}
	u19, err := netgen.Generate(netgen.Params2019(seed, scale))
	if err != nil {
		return nil, fmt.Errorf("analysis: 2019 universe: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	u20, err := netgen.Generate(netgen.DefaultParams(seed, scale))
	if err != nil {
		return nil, fmt.Errorf("analysis: 2020 universe: %w", err)
	}
	res := &SyncDepResult{
		Rate2019: churn.SyncedDepartures(u19, interval),
		Rate2020: churn.SyncedDepartures(u20, interval),
		Interval: interval,
	}
	if res.Rate2019 > 0 {
		res.Ratio = res.Rate2020 / res.Rate2019
	}
	return res, nil
}
