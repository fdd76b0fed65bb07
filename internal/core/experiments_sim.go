package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/stats"
)

// Message-level simulation experiments: Figures 1, 6, 7, 10, 11 and the
// restart/resync measurement.

// fig1Experiment reproduces the synchronization KDE contrast.
func fig1Experiment() Experiment {
	return Experiment{
		ID:      "fig1",
		Title:   "Network synchronization in 2019 vs 2020 (kernel density)",
		Section: "§I, Figure 1",
		Run: func(ctx context.Context, opts Options) (*Report, error) {
			opts = opts.withDefaults()
			cfg := analysis.Fig1Config{
				Seed:         opts.Seed,
				NumReachable: opts.NetSize,
				Duration:     8 * time.Hour,
				Churn2019:    churnScaled(opts.NetSize, 0.9),
				Churn2020:    churnScaled(opts.NetSize, 3.0),
				Replications: 3,
				Workers:      opts.Workers,
			}
			if opts.Quick {
				cfg.Duration = 3 * time.Hour
				cfg.Replications = 1
			}
			res, err := analysis.RunFig1(ctx, cfg)
			if err != nil {
				return nil, err
			}
			rep := &Report{ID: "fig1", Title: "Synchronization distributions"}
			rep.AddMetricf("2019 mean sync", 100*res.Y2019.Mean, "%.2f%%", "72.02%")
			rep.AddMetricf("2019 median sync", 100*res.Y2019.Median, "%.2f%%", "80.38%")
			rep.AddMetricf("2020 mean sync", 100*res.Y2020.Mean, "%.2f%%", "61.91%")
			rep.AddMetricf("2020 median sync", 100*res.Y2020.Median, "%.2f%%", "65.47%")
			rep.AddMetricf("mean drop (points)",
				100*(res.Y2019.Mean-res.Y2020.Mean), "%.2f", "≈10")

			t := Table{Name: "kde", Header: []string{"sync", "density2019", "density2020"}}
			for i := range res.Y2019.Grid {
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%.3f", res.Y2019.Grid[i]),
					fmt.Sprintf("%.4f", res.Y2019.Density[i]),
					fmt.Sprintf("%.4f", res.Y2020.Density[i]),
				})
			}
			rep.Tables = append(rep.Tables, t)
			rep.Notes = append(rep.Notes,
				"total churn-event rates follow the netgen 2019/2020 calibration (ratio ≈3 at 10-minute granularity; the paper's ≈2 ratio is for synchronized departures only)",
				"both regimes share block schedules and topology per replication (common random numbers)",
				"the drop magnitude compresses at simulation scale; direction and distribution shape are the reproduced claims")
			return rep, nil
		},
	}
}

// churnScaled maps the paper's full-network churn (at ~10K nodes) to the
// simulated population, with a floor that keeps the process active at
// small scale.
func churnScaled(netSize int, multiplier float64) float64 {
	// The 80-node calibration run reproduces the paper's means at 1.0/2.0
	// departures per 10 minutes; scale linearly with population.
	rate := multiplier * float64(netSize) / 80
	if rate < 0.25 {
		rate = 0.25
	}
	return rate
}

// fig6Experiment reproduces the outgoing-connection stability trace.
func fig6Experiment() Experiment {
	return Experiment{
		ID:      "fig6",
		Title:   "Outgoing connection stability over 260 seconds",
		Section: "§IV-B, Figure 6",
		Run: func(ctx context.Context, opts Options) (*Report, error) {
			opts = opts.withDefaults()
			cfg := analysis.ConnExperimentConfig{
				Seed:              opts.Seed,
				LivePeers:         opts.NetSize / 2,
				Duration:          260 * time.Second,
				SampleEvery:       time.Second,
				ObserverWarmup:    12 * time.Minute,
				PeerChurnPer10Min: 4,
				ConnDropEvery:     45 * time.Second,
				Runs:              1,
			}
			res, err := analysis.RunConnExperiment(ctx, cfg)
			if err != nil {
				return nil, err
			}
			rep := &Report{ID: "fig6", Title: "Connection stability"}
			rep.AddMetricf("mean outgoing connections", res.MeanConns, "%.2f", "6.67")
			rep.AddMetricf("time below 8 connections", 100*res.FracBelowTarget,
				"%.0f%%", "≈60%")
			lo, hi := 99, 0
			for _, s := range res.Runs[0].Samples {
				if s < lo {
					lo = s
				}
				if s > hi {
					hi = s
				}
			}
			rep.AddMetric("range", fmt.Sprintf("%d–%d", lo, hi), "2–10")

			t := Table{Name: "trace", Header: []string{"second", "connections"}}
			for i, s := range res.Runs[0].Samples {
				t.Rows = append(t.Rows, []string{fmt.Sprint(i), fmt.Sprint(s)})
			}
			rep.Tables = append(rep.Tables, t)
			return rep, nil
		},
	}
}

// fig7Experiment reproduces the connection success-rate runs.
func fig7Experiment() Experiment {
	return Experiment{
		ID:      "fig7",
		Title:   "Outgoing connection attempts vs successes (5 runs)",
		Section: "§IV-B, Figure 7",
		Run: func(ctx context.Context, opts Options) (*Report, error) {
			opts = opts.withDefaults()
			cfg := analysis.ConnExperimentConfig{
				Seed:              opts.Seed,
				LivePeers:         opts.NetSize / 2,
				Duration:          5 * time.Minute,
				SampleEvery:       5 * time.Second,
				PeerChurnPer10Min: 2,
				ConnDropEvery:     40 * time.Second,
				Runs:              5,
			}
			res, err := analysis.RunConnExperiment(ctx, cfg)
			if err != nil {
				return nil, err
			}
			rep := &Report{ID: "fig7", Title: "Connection success rate"}
			rep.AddMetricf("success rate", 100*res.SuccessRate, "%.1f%%", "11.2%")
			rep.AddMetricf("failure rate", 100*(1-res.SuccessRate), "%.1f%%", "88.8%")

			t := Table{Name: "runs", Header: []string{"run", "attempts", "successes"}}
			for i, r := range res.Runs {
				t.Rows = append(t.Rows, []string{
					fmt.Sprint(i + 1), fmt.Sprint(r.Attempts), fmt.Sprint(r.Successes),
				})
			}
			rep.Tables = append(rep.Tables, t)
			return rep, nil
		},
	}
}

// Figures 10 and 11 read the block and the transaction relays of one
// trace, memoized so a batch replays it once.
var relayStudy = newStudy[*analysis.PropagationResult]()

// relayExperiment returns the (possibly memoized) Figure 10/11 workload.
func relayExperiment(ctx context.Context, opts Options) (*analysis.PropagationResult, error) {
	return relayStudy.get(ctx, opts, func(ctx context.Context, opts Options) (*analysis.PropagationResult, error) {
		cfg := analysis.PropagationConfig{
			Seed:                    opts.Seed,
			NumReachable:            opts.NetSize,
			Duration:                6 * time.Hour,
			TxPerBlock:              400,
			CompactBlocks:           true,
			CompactShare:            0.8,       // the 2020 network mixed compact and legacy peers
			BytesPerSec:             320 << 10, // a residential uplink share
			ChurnDeparturesPer10Min: churnScaled(opts.NetSize, 1.5),
		}
		if opts.Quick {
			cfg.Duration = 90 * time.Minute
			cfg.TxPerBlock = 150
		}
		return analysis.RunPropagation(ctx, cfg)
	})
}

// fig10Experiment reproduces the block relay-delay distribution.
func fig10Experiment() Experiment {
	return Experiment{
		ID:      "fig10",
		Title:   "Block relay delay to the last connection",
		Section: "§IV-C, Figure 10",
		Run: func(ctx context.Context, opts Options) (*Report, error) {
			res, err := relayExperiment(ctx, opts)
			if err != nil {
				return nil, err
			}
			s := analysis.SummarizeRelays(res.BlockRelays)
			rep := &Report{ID: "fig10", Title: "Block relay delay"}
			rep.AddMetricf("mean delay", s.Mean, "%.2f s", "1.39 s")
			rep.AddMetricf("max delay (paper-size sample)", s.P997, "%.2f s", "17 s")
			rep.AddMetricf("max delay (all observations)", s.Max, "%.2f s", "")
			rep.AddMetricf("p90 delay", s.P90, "%.2f s", "")
			rep.AddMetricf("p99 delay", s.P99, "%.2f s", "")
			rep.AddMetricf("observations", float64(s.Count), "%.0f", "")
			rep.Tables = append(rep.Tables, delayTable("delays", s.Series))
			rep.Series = res.Series
			return rep, nil
		},
	}
}

// fig11Experiment reproduces the transaction relay-delay distribution.
func fig11Experiment() Experiment {
	return Experiment{
		ID:      "fig11",
		Title:   "Transaction relay delay to the last connection",
		Section: "§IV-C, Figure 11",
		Run: func(ctx context.Context, opts Options) (*Report, error) {
			res, err := relayExperiment(ctx, opts)
			if err != nil {
				return nil, err
			}
			s := analysis.SummarizeRelays(res.TxRelays)
			rep := &Report{ID: "fig11", Title: "Transaction relay delay"}
			rep.AddMetricf("mean delay", s.Mean, "%.2f s", "0.45 s")
			rep.AddMetricf("p99.9 delay", stats.Quantile(s.Series, 0.999), "%.2f s", "8 s (paper max)")
			rep.AddMetricf("max delay (all observations)", s.Max, "%.2f s", "")
			rep.AddMetricf("p90 delay", s.P90, "%.2f s", "")
			rep.AddMetricf("observations", float64(s.Count), "%.0f", "")
			rep.Tables = append(rep.Tables, delayTable("delays", s.Series))
			rep.Series = res.Series
			return rep, nil
		},
	}
}

// delayTable folds a delay series into a CDF table (delays are numerous;
// the CDF is the useful artifact).
func delayTable(name string, series []float64) Table {
	t := Table{Name: name + "-cdf", Header: []string{"delay_s", "cdf"}}
	if len(series) == 0 {
		return t
	}
	s := stats.MustSummarize(series)
	grid := stats.Grid(0, s.Max, 51)
	cdf := stats.ECDF(series, grid)
	for i := range grid {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", grid[i]), fmt.Sprintf("%.4f", cdf[i]),
		})
	}
	return t
}

// resyncExperiment reproduces the restart/resync measurement.
func resyncExperiment() Experiment {
	return Experiment{
		ID:      "resync",
		Title:   "Time for a restarted node to resynchronize",
		Section: "§IV-D",
		Run: func(ctx context.Context, opts Options) (*Report, error) {
			opts = opts.withDefaults()
			res, err := analysis.RunResync(ctx, opts.Seed, opts.NetSize/2)
			if err != nil {
				return nil, err
			}
			rep := &Report{ID: "resync", Title: "Restart recovery milestones"}
			rep.AddMetric("first outbound handshake",
				res.ToFirstConnection.Round(time.Second).String(), "")
			rep.AddMetric("chain tip reached (IBD done)",
				res.ToSynced.Round(time.Second).String(), "")
			full := "never (within 30m window)"
			if res.ToFullSlots > 0 {
				full = res.ToFullSlots.Round(time.Second).String()
			}
			rep.AddMetric("stable outbound slots restored", full, "11m14s")
			rep.Notes = append(rep.Notes,
				"the paper reports 11m14s until the node relayed blocks again, mostly spent establishing stable outgoing connections — compare the slot-restoration milestone",
				"the restarted node dials serially (MaxPendingDials=1), matching ThreadOpenConnections")
			return rep, nil
		},
	}
}

// hijackExperiment extends §IV-A1: a live AS-hijack partition rather
// than the paper's hosting-share counting argument.
func hijackExperiment() Experiment {
	return Experiment{
		ID:      "hijack",
		Title:   "AS-hijack partition experiment (extension of §IV-A1)",
		Section: "§IV-A1 (extension)",
		Run: func(ctx context.Context, opts Options) (*Report, error) {
			opts = opts.withDefaults()
			cfg := analysis.HijackConfig{
				Seed:         opts.Seed,
				NumReachable: opts.NetSize,
			}
			if opts.Quick {
				cfg.At = 15 * time.Minute
				cfg.Observe = 15 * time.Minute
			}
			res, err := analysis.RunHijack(ctx, cfg)
			if err != nil {
				return nil, err
			}
			rep := &Report{ID: "hijack", Title: "AS-hijack partition"}
			rep.AddMetricf("nodes isolated directly", 100*res.IsolatedShare,
				"%.1f%%", "≈50% when hijacking the top ASes ([22] via Table I shares)")
			rep.AddMetricf("survivor outdegree before", res.SurvivorMeanOutdegreeBefore, "%.2f", "")
			rep.AddMetricf("survivor outdegree after", res.SurvivorMeanOutdegreeAfter, "%.2f", "")
			rep.AddMetricf("survivors at tip after observation", 100*res.SurvivorsAtTip, "%.1f%%", "")
			rep.AddMetricf("blocks mined after hijack", float64(res.BlocksMinedAfter), "%.0f", "")
			asList := Table{Name: "hijacked-ases", Header: []string{"asn"}}
			for _, a := range res.HijackedASes {
				asList.Rows = append(asList.Rows, []string{fmt.Sprint(a)})
			}
			rep.Tables = append(rep.Tables, asList)
			return rep, nil
		},
	}
}
