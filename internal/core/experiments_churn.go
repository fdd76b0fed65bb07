package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/analysis"
	"repro/internal/netgen"
)

// Snapshot-level churn experiments: Figures 12 and 13 and the
// synchronized-departure contrast.

// Figures 12 and 13 read one presence matrix, memoized so a batch builds
// it once.
var churnStudy = newStudy[*analysis.ChurnFigsResult]()

// churnFigsFor returns the (possibly memoized) presence-matrix study for
// opts.
func churnFigsFor(ctx context.Context, opts Options) (*analysis.ChurnFigsResult, error) {
	return churnStudy.get(ctx, opts, func(ctx context.Context, opts Options) (*analysis.ChurnFigsResult, error) {
		return analysis.RunChurnFigs(ctx, analysis.ChurnFigsConfig{
			Params: netgen.DefaultParams(opts.Seed, opts.Scale),
		})
	})
}

// RenderFig12 draws Figure 12's presence matrix as ASCII art with a
// summary line. It reads the study the fig12 experiment reports on the
// same Options, so both describe one population.
func RenderFig12(ctx context.Context, opts Options, w io.Writer) error {
	res, err := churnFigsFor(ctx, opts)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\npersistent=%d of %d, mean lifetime %.1f days\n",
		res.Matrix.Render(48, 100), res.PersistentCount, res.UniqueAddresses,
		res.MeanLifetime.Hours()/24)
	return err
}

// fig12Experiment reproduces the binary presence matrix.
func fig12Experiment() Experiment {
	return Experiment{
		ID:      "fig12",
		Title:   "Binary presence matrix of reachable addresses",
		Section: "§IV-D, Figure 12 / Algorithm 4",
		Run: func(ctx context.Context, opts Options) (*Report, error) {
			res, err := churnFigsFor(ctx, opts)
			if err != nil {
				return nil, err
			}
			rep := &Report{ID: "fig12", Title: "Presence matrix"}
			rep.AddMetricf("unique reachable addresses",
				float64(res.UniqueAddresses), "%.0f", scaledPaper(opts, 28781))
			rep.AddMetricf("always-present nodes",
				float64(res.PersistentCount), "%.0f", scaledPaper(opts, 3034))
			rep.AddMetricf("mean node lifetime (days)",
				res.MeanLifetime.Hours()/24, "%.1f", "16.6")
			rep.Notes = append(rep.Notes,
				"render the matrix with `reproduce -render fig12` or churn.Matrix.Render")
			return rep, nil
		},
	}
}

// fig13Experiment reproduces the daily arrival/departure series.
func fig13Experiment() Experiment {
	return Experiment{
		ID:      "fig13",
		Title:   "Daily node arrivals and departures",
		Section: "§IV-D, Figure 13",
		Run: func(ctx context.Context, opts Options) (*Report, error) {
			res, err := churnFigsFor(ctx, opts)
			if err != nil {
				return nil, err
			}
			rep := &Report{ID: "fig13", Title: "Daily churn"}
			rep.AddMetricf("mean daily departures", res.MeanDailyDepartures,
				"%.0f", scaledPaper(opts, 708))
			rep.AddMetricf("mean daily arrivals", res.MeanDailyArrivals,
				"%.0f", scaledPaper(opts, 708))
			rep.AddMetricf("daily departure share", res.DepartureSharePct,
				"%.1f%%", "8.6%")

			t := Table{Name: "series", Header: []string{"day", "departures", "arrivals"}}
			for i := range res.DailyDepartures {
				t.Rows = append(t.Rows, []string{
					fmt.Sprint(i + 1),
					fmt.Sprint(res.DailyDepartures[i]),
					fmt.Sprint(res.DailyArrivals[i]),
				})
			}
			rep.Tables = append(rep.Tables, t)
			rep.Series = res.Series
			return rep, nil
		},
	}
}

// syncDepExperiment reproduces the synchronized-departure contrast.
func syncDepExperiment() Experiment {
	return Experiment{
		ID:      "syncdep",
		Title:   "Synchronized-node departures, 2019 vs 2020",
		Section: "§IV-D",
		Run: func(ctx context.Context, opts Options) (*Report, error) {
			opts = opts.withDefaults()
			interval := 10 * time.Minute
			if opts.Quick {
				interval = time.Hour
			}
			res, err := analysis.RunSyncDepartures(ctx, opts.Seed, opts.Scale, interval)
			if err != nil {
				return nil, err
			}
			// The paper reports per-10-minute rates; renormalize coarser
			// sampling for comparability.
			factor := float64(10*time.Minute) / float64(res.Interval)
			rep := &Report{ID: "syncdep", Title: "Synchronized departures"}
			rep.AddMetricf("2019 rate (/10 min)", res.Rate2019*factor, "%.2f",
				scaledPaper(opts, 3.9))
			rep.AddMetricf("2020 rate (/10 min)", res.Rate2020*factor, "%.2f",
				scaledPaper(opts, 7.6))
			rep.AddMetricf("2020/2019 ratio", res.Ratio, "%.2f", "≈2 (doubled)")
			return rep, nil
		},
	}
}
