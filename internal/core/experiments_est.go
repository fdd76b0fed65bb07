package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/netgen"
	"repro/internal/obs"
)

// The fig_est_* experiments are the estimator validation lab (ROADMAP
// item 4): the Grundmann unreachable-population estimator
// (arXiv:2102.12774) and peer-degree estimator (arXiv:2108.00815) —
// the techniques the paper leans on for its unreachable-node root
// cause analysis — are run against simulated universes whose ground
// truth is known, across a churn × flooder × NAT-mix grid. Both
// figures derive from one sweep, memoized like the crawl series.
var estStudy = newStudy[*analysis.EstFigsResult]()

// estFor returns the (possibly memoized) estimator sweep for opts.
func estFor(ctx context.Context, opts Options) (*analysis.EstFigsResult, error) {
	return estStudy.get(ctx, opts, func(ctx context.Context, opts Options) (*analysis.EstFigsResult, error) {
		// The sweep builds eight universes, so the per-cell scale is
		// capped below the single-universe experiments' full scale.
		scale := opts.Scale
		if scale > 0.10 {
			scale = 0.10
		}
		rounds := 6
		if opts.Quick {
			rounds = 3
		}
		return analysis.RunEstFigs(ctx, analysis.EstFigsConfig{
			Base:    netgen.DefaultParams(opts.Seed, scale),
			Rounds:  rounds,
			Workers: opts.Workers,
		})
	})
}

// estSeriesSplit filters the sweep's merged series for one figure:
// degree-prefixed series for fig_est_degree, everything else
// (population series plus the est.* counter deltas) for fig_est_pop.
func estSeriesSplit(set *obs.SeriesSet, degree bool) *obs.SeriesSet {
	if set == nil {
		return nil
	}
	out := &obs.SeriesSet{}
	for _, s := range set.Series {
		if strings.HasPrefix(s.Name, "est.deg.") == degree {
			out.Series = append(out.Series, s)
		}
	}
	return out
}

// figEstPopExperiment validates the unreachable-population estimator.
func figEstPopExperiment() Experiment {
	return Experiment{
		ID:      "fig_est_pop",
		Title:   "Unreachable-population estimator vs ground truth",
		Section: "estimator lab (arXiv:2102.12774)",
		Run: func(ctx context.Context, opts Options) (*Report, error) {
			res, err := estFor(ctx, opts)
			if err != nil {
				return nil, err
			}
			rep := &Report{ID: "fig_est_pop", Title: "Population estimate error across the grid"}
			var relSum, relMax float64
			var draws int
			for _, c := range res.Cells {
				relSum += c.PopRelErr
				if c.PopRelErr > relMax {
					relMax = c.PopRelErr
				}
				draws += c.Observations
			}
			n := float64(len(res.Cells))
			rep.AddMetricf("mean relative error", 100*relSum/n, "%.2f%%", "≤ ~5% expected")
			rep.AddMetricf("max cell relative error", 100*relMax, "%.2f%%", "≤ ~10% expected")
			rep.AddMetricf("announcement draws counted", float64(draws), "%.0f", "")

			t := Table{
				Name:   "cells",
				Header: []string{"cell", "churn", "flooders", "resp-mix", "truth", "estimate", "rel-err", "draws"},
			}
			for _, c := range res.Cells {
				t.Rows = append(t.Rows, []string{
					c.Name, c.Churn, fmt.Sprint(c.Flooders),
					fmt.Sprintf("%.2f", c.ResponsiveMix),
					fmt.Sprintf("%.1f", c.PopTruthMean),
					fmt.Sprintf("%.1f", c.PopEstMean),
					fmt.Sprintf("%.4f", c.PopRelErr),
					fmt.Sprint(c.Observations),
				})
			}
			rep.Tables = append(rep.Tables, t)
			rep.Series = estSeriesSplit(res.Series, false)
			rep.Notes = append(rep.Notes,
				"truth is the gossip-visible unreachable census; the estimate inverts ADDR announcement recurrence",
				"flooder cells skew high: duplicate-laden malicious books add recurrence the closed form attributes to coverage")
			return rep, nil
		},
	}
}

// figEstDegreeExperiment validates the peer-degree estimator.
func figEstDegreeExperiment() Experiment {
	return Experiment{
		ID:      "fig_est_degree",
		Title:   "Peer-degree estimator vs ground truth",
		Section: "estimator lab (arXiv:2108.00815)",
		Run: func(ctx context.Context, opts Options) (*Report, error) {
			res, err := estFor(ctx, opts)
			if err != nil {
				return nil, err
			}
			rep := &Report{ID: "fig_est_degree", Title: "Degree estimate error across the grid"}
			var relSum, ratioSum float64
			var sources int
			for _, c := range res.Cells {
				relSum += c.DegRelErr
				ratioSum += c.DegRatioRelErr
				sources += c.Sources
			}
			n := float64(len(res.Cells))
			rep.AddMetricf("mean relative error (full drain)", 100*relSum/n, "%.2f%%", "≤ ~1% expected")
			rep.AddMetricf("mean relative error (ratio probe)", 100*ratioSum/n, "%.2f%%", "≤ ~10% expected")
			rep.AddMetricf("source-rounds measured", float64(sources), "%.0f", "")

			t := Table{
				Name:   "cells",
				Header: []string{"cell", "truth", "estimate", "rel-err", "ratio-rel-err", "sources"},
			}
			for _, c := range res.Cells {
				t.Rows = append(t.Rows, []string{
					c.Name,
					fmt.Sprintf("%.2f", c.DegTruthMean),
					fmt.Sprintf("%.2f", c.DegEstMean),
					fmt.Sprintf("%.4f", c.DegRelErr),
					fmt.Sprintf("%.4f", c.DegRatioRelErr),
					fmt.Sprint(c.Sources),
				})
			}
			rep.Tables = append(rep.Tables, t)
			rep.Series = estSeriesSplit(res.Series, true)
			rep.Notes = append(rep.Notes,
				"truth is the distinct-address degree of each station's regenerated addr book",
				"the crawler drains books to the repeat page, so the max(enumeration, ratio) estimate is near-exact; the ratio column shows the single-exchange getaddr-contract bound alone")
			return rep, nil
		},
	}
}
