package core

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/netgen"
)

// The crawl-series experiments (Figures 3, 4, 5, 8, Table I, and the
// ADDR-composition scalar) all derive from one longitudinal study, which
// is memoized so `reproduce all` pays for it once.
var crawlStudy = newStudy[*analysis.CrawlSeriesResult]()

// crawlSeriesFor returns the (possibly memoized) longitudinal study for
// opts.
func crawlSeriesFor(ctx context.Context, opts Options) (*analysis.CrawlSeriesResult, error) {
	return crawlStudy.get(ctx, opts, func(ctx context.Context, opts Options) (*analysis.CrawlSeriesResult, error) {
		cfg := analysis.CrawlSeriesConfig{
			Params:                 netgen.DefaultParams(opts.Seed, opts.Scale),
			ScannerStartExperiment: 14, // the paper's two-week scanner delay
			ScanSampleFraction:     1.0,
			Workers:                opts.Workers,
		}
		if opts.Quick {
			cfg.Experiments = 12
			cfg.ScannerStartExperiment = 3
		}
		return analysis.RunCrawlSeries(ctx, cfg)
	})
}

// scaledPaper renders a paper-scale count at the run's scale for honest
// comparisons.
func scaledPaper(opts Options, paperValue float64) string {
	opts = opts.withDefaults()
	return fmt.Sprintf("%.0f at this scale (%.0f at full scale)",
		paperValue*opts.Scale, paperValue)
}

// fig3Experiment reproduces the seed-source statistics.
func fig3Experiment() Experiment {
	return Experiment{
		ID:      "fig3",
		Title:   "Seed databases, exclusions, and crawler connections",
		Section: "§III-A, Figure 3",
		Run: func(ctx context.Context, opts Options) (*Report, error) {
			res, err := crawlSeriesFor(ctx, opts)
			if err != nil {
				return nil, err
			}
			opts = opts.withDefaults()
			n := float64(len(res.Experiments))
			var bitnodes, dns, common, exB, exD, exC, connected, dnsOnly float64
			for _, e := range res.Experiments {
				bitnodes += float64(e.Bitnodes)
				dns += float64(e.DNS)
				common += float64(e.Common)
				exB += float64(e.BitnodesExcluded)
				exD += float64(e.DNSExcluded)
				exC += float64(e.CommonExcluded)
				connected += float64(e.Connected)
				dnsOnly += float64(e.ConnectedDNSOnly)
			}
			rep := &Report{ID: "fig3", Title: "Seed sources (averages per experiment)"}
			rep.AddMetricf("bitnodes addresses", bitnodes/n, "%.0f", scaledPaper(opts, 10114))
			rep.AddMetricf("dns addresses", dns/n, "%.0f", scaledPaper(opts, 6637))
			rep.AddMetricf("common addresses", common/n, "%.0f", scaledPaper(opts, 6078))
			rep.AddMetricf("bitnodes excluded", exB/n, "%.0f", scaledPaper(opts, 439))
			rep.AddMetricf("dns excluded", exD/n, "%.0f", scaledPaper(opts, 342))
			rep.AddMetricf("common excluded", exC/n, "%.0f", scaledPaper(opts, 329))
			rep.AddMetricf("connected nodes", connected/n, "%.0f", scaledPaper(opts, 8270))
			rep.AddMetricf("connected, missed by bitnodes", dnsOnly/n, "%.0f", scaledPaper(opts, 404))
			rep.AddMetricf("unique reachable over horizon", float64(res.UniqueConnected),
				"%.0f", scaledPaper(opts, 28781))

			t := Table{
				Name:   "per-experiment",
				Header: []string{"exp", "bitnodes", "dns", "common", "connected", "dns-only"},
			}
			for _, e := range res.Experiments {
				t.Rows = append(t.Rows, []string{
					fmt.Sprint(e.Index), fmt.Sprint(e.Bitnodes), fmt.Sprint(e.DNS),
					fmt.Sprint(e.Common), fmt.Sprint(e.Connected),
					fmt.Sprint(e.ConnectedDNSOnly),
				})
			}
			rep.Tables = append(rep.Tables, t)
			return rep, nil
		},
	}
}

// fig4Experiment reproduces the unreachable-address collection series.
func fig4Experiment() Experiment {
	return Experiment{
		ID:      "fig4",
		Title:   "Unreachable addresses per experiment and cumulative",
		Section: "§IV-A, Figure 4",
		Run: func(ctx context.Context, opts Options) (*Report, error) {
			res, err := crawlSeriesFor(ctx, opts)
			if err != nil {
				return nil, err
			}
			opts = opts.withDefaults()
			var perExp float64
			for _, e := range res.Experiments {
				perExp += float64(e.UniqueUnreachable)
			}
			perExp /= float64(len(res.Experiments))
			rep := &Report{ID: "fig4", Title: "Unreachable address collection"}
			rep.AddMetricf("unique unreachable per experiment", perExp, "%.0f",
				scaledPaper(opts, 195000))
			rep.AddMetricf("cumulative unique unreachable",
				float64(res.TotalUniqueUnreachable), "%.0f", scaledPaper(opts, 694696))
			rep.AddMetricf("port-8333 share", 100*res.DefaultPortShareUnreachable,
				"%.2f%%", "88.54%")

			t := Table{
				Name:   "series",
				Header: []string{"exp", "unique", "cumulative"},
			}
			for _, e := range res.Experiments {
				t.Rows = append(t.Rows, []string{
					fmt.Sprint(e.Index), fmt.Sprint(e.UniqueUnreachable),
					fmt.Sprint(e.CumulativeUnreachable),
				})
			}
			rep.Tables = append(rep.Tables, t)
			return rep, nil
		},
	}
}

// fig5Experiment reproduces the responsive-node scan series.
func fig5Experiment() Experiment {
	return Experiment{
		ID:      "fig5",
		Title:   "Responsive unreachable nodes per experiment and cumulative",
		Section: "§IV-A, Figure 5",
		Run: func(ctx context.Context, opts Options) (*Report, error) {
			res, err := crawlSeriesFor(ctx, opts)
			if err != nil {
				return nil, err
			}
			opts = opts.withDefaults()
			var perExp, scans float64
			for _, e := range res.Experiments {
				if e.Responsive > 0 {
					perExp += float64(e.Responsive)
					scans++
				}
			}
			if scans > 0 {
				perExp /= scans
			}
			rep := &Report{ID: "fig5", Title: "Responsive scan (Algorithm 2)"}
			rep.AddMetricf("responsive per experiment", perExp, "%.0f",
				scaledPaper(opts, 54000))
			rep.AddMetricf("cumulative responsive", float64(res.TotalResponsive),
				"%.0f", scaledPaper(opts, 163496))
			if res.TotalUniqueUnreachable > 0 {
				rep.AddMetricf("responsive share of unreachable",
					100*float64(res.TotalResponsive)/float64(res.TotalUniqueUnreachable),
					"%.2f%%", "23.54%")
			}
			t := Table{
				Name:   "series",
				Header: []string{"exp", "responsive", "cumulative"},
			}
			for _, e := range res.Experiments {
				t.Rows = append(t.Rows, []string{
					fmt.Sprint(e.Index), fmt.Sprint(e.Responsive),
					fmt.Sprint(e.CumulativeResponsive),
				})
			}
			rep.Tables = append(rep.Tables, t)
			rep.Notes = append(rep.Notes,
				"scanner starts after the configured delay, reproducing the paper's two-week gap")
			return rep, nil
		},
	}
}

// fig8Experiment reproduces the malicious-flooder detection.
func fig8Experiment() Experiment {
	return Experiment{
		ID:      "fig8",
		Title:   "Reachable nodes flooding unreachable-only ADDR responses",
		Section: "§IV-B, Figure 8",
		Run: func(ctx context.Context, opts Options) (*Report, error) {
			res, err := crawlSeriesFor(ctx, opts)
			if err != nil {
				return nil, err
			}
			opts = opts.withDefaults()
			heavy := 0
			in3320 := 0
			maxSent := 0
			for _, m := range res.Malicious {
				if float64(m.UnreachableSent) > 100000*opts.Scale {
					heavy++
				}
				if m.ASN == 3320 {
					in3320++
				}
				if m.UnreachableSent > maxSent {
					maxSent = m.UnreachableSent
				}
			}
			rep := &Report{ID: "fig8", Title: "Malicious flooders detected"}
			rep.AddMetricf("flagged nodes", float64(len(res.Malicious)), "%.0f",
				scaledPaper(opts, 73))
			rep.AddMetricf("nodes above 100K (scaled)", float64(heavy), "%.0f",
				scaledPaper(opts, 8))
			rep.AddMetricf("max addresses from one node", float64(maxSent), "%.0f",
				scaledPaper(opts, 400000))
			rep.AddMetricf("flagged nodes in AS3320", float64(in3320), "%.0f",
				scaledPaper(opts, 43))

			t := Table{
				Name:   "flooders",
				Header: []string{"rank", "asn", "unreachable-sent", "experiments"},
			}
			for i, m := range res.Malicious {
				t.Rows = append(t.Rows, []string{
					fmt.Sprint(i + 1), fmt.Sprint(m.ASN),
					fmt.Sprint(m.UnreachableSent), fmt.Sprint(m.Experiments),
				})
			}
			rep.Tables = append(rep.Tables, t)
			return rep, nil
		},
	}
}

// table1Experiment reproduces the AS-hosting censuses.
func table1Experiment() Experiment {
	return Experiment{
		ID:      "table1",
		Title:   "Top-20 ASes per node class and hijack coverage",
		Section: "§IV-A1, Table I",
		Run: func(ctx context.Context, opts Options) (*Report, error) {
			res, err := crawlSeriesFor(ctx, opts)
			if err != nil {
				return nil, err
			}
			rep := &Report{ID: "table1", Title: "AS censuses"}
			paperCoverage := map[string]string{
				"reachable": "25", "unreachable": "36", "responsive": "24",
			}
			paperASes := map[string]string{
				"reachable": "2000", "unreachable": "8494", "responsive": "4453",
			}
			for _, c := range res.Censuses {
				rep.AddMetric(fmt.Sprintf("%s: ASes hosting 50%%", c.Class),
					fmt.Sprint(c.CoverageFor50Pct), paperCoverage[c.Class])
				rep.AddMetric(fmt.Sprintf("%s: distinct ASes", c.Class),
					fmt.Sprint(c.NumASes), paperASes[c.Class]+" (population-limited at reduced scale)")
				t := Table{
					Name:   "top20-" + c.Class,
					Header: []string{"rank", "asn", "count", "pct"},
				}
				for i, s := range c.Top {
					t.Rows = append(t.Rows, []string{
						fmt.Sprint(i + 1), fmt.Sprint(s.ASN),
						fmt.Sprint(s.Count), fmt.Sprintf("%.2f", s.Pct),
					})
				}
				rep.Tables = append(rep.Tables, t)
			}
			rep.Notes = append(rep.Notes,
				"AS shares are planted from the paper's Table I and recovered from IPs by the census")
			return rep, nil
		},
	}
}

// addrMixExperiment reproduces the ADDR-composition scalar.
func addrMixExperiment() Experiment {
	return Experiment{
		ID:      "addrmix",
		Title:   "Reachable/unreachable composition of ADDR messages",
		Section: "§IV-A2",
		Run: func(ctx context.Context, opts Options) (*Report, error) {
			res, err := crawlSeriesFor(ctx, opts)
			if err != nil {
				return nil, err
			}
			rep := &Report{ID: "addrmix", Title: "ADDR message composition"}
			rep.AddMetricf("reachable share", 100*res.MeanAddrReachableShare,
				"%.1f%%", "14.9%")
			rep.AddMetricf("unreachable share", 100*(1-res.MeanAddrReachableShare),
				"%.1f%%", "85.1%")
			return rep, nil
		},
	}
}
