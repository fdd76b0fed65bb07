package repro_test

// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation. Each benchmark regenerates its figure/table through the
// internal/core experiment registry and reports the headline quantities
// as custom benchmark metrics, so `go test -bench=. -benchmem` produces a
// machine-readable paper-vs-measured record (see EXPERIMENTS.md for the
// curated comparison).
//
// The crawl-series experiments (fig3/4/5/8, table1, addrmix) share one
// memoized longitudinal study per (seed, scale), so the suite pays for
// the 60-experiment crawl once.

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/core"
)

// benchOpts are the options used by every benchmark: reduced-scale
// populations (30% of the paper's network) and 120-node message-level
// simulations, which keep the full suite in the minutes range while
// preserving every qualitative shape.
var benchOpts = core.Options{Seed: 1, Scale: 0.30, NetSize: 120}

// runExperiment executes a registered experiment b.N times, reporting
// the selected metrics from the final run.
func runExperiment(b *testing.B, id string, metrics map[string]string) {
	b.Helper()
	exp, ok := core.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var rep *core.Report
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = exp.Run(context.Background(), benchOpts)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	b.StopTimer()
	for _, m := range rep.Metrics {
		unit, wanted := metrics[m.Name]
		if !wanted {
			continue
		}
		if v, err := strconv.ParseFloat(trimNumeric(m.Value), 64); err == nil {
			b.ReportMetric(v, unit)
		}
	}
}

// trimNumeric strips unit suffixes ("%", " s", "s") from a rendered
// metric value.
func trimNumeric(s string) string {
	end := len(s)
	for end > 0 {
		c := s[end-1]
		if (c >= '0' && c <= '9') || c == '.' || c == '-' {
			break
		}
		end--
	}
	return s[:end]
}

// BenchmarkFig1SyncKDE regenerates Figure 1: the synchronization
// distributions of the 2019 and 2020 regimes (paper: mean 72.02% vs
// 61.91%).
func BenchmarkFig1SyncKDE(b *testing.B) {
	runExperiment(b, "fig1", map[string]string{
		"2019 mean sync": "sync2019_pct",
		"2020 mean sync": "sync2020_pct",
	})
}

// BenchmarkFig3SeedSources regenerates Figure 3: seed databases,
// exclusions, and crawler connections.
func BenchmarkFig3SeedSources(b *testing.B) {
	runExperiment(b, "fig3", map[string]string{
		"bitnodes addresses": "bitnodes_addrs",
		"connected nodes":    "connected",
	})
}

// BenchmarkFig4UnreachableAddrs regenerates Figure 4: unreachable
// addresses per experiment and cumulative (paper: ≈195K and 694,696).
func BenchmarkFig4UnreachableAddrs(b *testing.B) {
	runExperiment(b, "fig4", map[string]string{
		"unique unreachable per experiment": "per_experiment",
		"cumulative unique unreachable":     "cumulative",
	})
}

// BenchmarkFig5ResponsiveNodes regenerates Figure 5: responsive nodes per
// experiment and cumulative (paper: ≈54K and 163,496).
func BenchmarkFig5ResponsiveNodes(b *testing.B) {
	runExperiment(b, "fig5", map[string]string{
		"responsive per experiment": "per_experiment",
		"cumulative responsive":     "cumulative",
	})
}

// BenchmarkTable1ASDistribution regenerates Table I: the AS censuses and
// hijack-coverage counts (paper: 25/36/24 ASes host 50%).
func BenchmarkTable1ASDistribution(b *testing.B) {
	runExperiment(b, "table1", map[string]string{
		"reachable: ASes hosting 50%":   "cover_reachable",
		"unreachable: ASes hosting 50%": "cover_unreachable",
		"responsive: ASes hosting 50%":  "cover_responsive",
	})
}

// BenchmarkFig6ConnStability regenerates Figure 6: outgoing connection
// stability over 260 seconds (paper: mean 6.67, below 8 for ≈60% of the
// time).
func BenchmarkFig6ConnStability(b *testing.B) {
	runExperiment(b, "fig6", map[string]string{
		"mean outgoing connections": "mean_conns",
		"time below 8 connections":  "below8_pct",
	})
}

// BenchmarkFig7ConnSuccess regenerates Figure 7: outgoing connection
// success rate (paper: 11.2%).
func BenchmarkFig7ConnSuccess(b *testing.B) {
	runExperiment(b, "fig7", map[string]string{
		"success rate": "success_pct",
	})
}

// BenchmarkFig8MaliciousPeers regenerates Figure 8: flooders of
// unreachable-only ADDR responses (paper: 73 nodes, 43 in AS3320).
func BenchmarkFig8MaliciousPeers(b *testing.B) {
	runExperiment(b, "fig8", map[string]string{
		"flagged nodes":           "flagged",
		"flagged nodes in AS3320": "in_as3320",
	})
}

// BenchmarkFig10BlockRelayDelay regenerates Figure 10: block relay delay
// to the last connection (paper: mean 1.39 s, max 17 s).
func BenchmarkFig10BlockRelayDelay(b *testing.B) {
	runExperiment(b, "fig10", map[string]string{
		"mean delay":                    "mean_s",
		"max delay (paper-size sample)": "max_s",
	})
}

// BenchmarkFig11TxRelayDelay regenerates Figure 11: transaction relay
// delay to the last connection (paper: mean 0.45 s, max 8 s).
func BenchmarkFig11TxRelayDelay(b *testing.B) {
	runExperiment(b, "fig11", map[string]string{
		"mean delay":  "mean_s",
		"p99.9 delay": "p999_s",
	})
}

// BenchmarkFig12ChurnMatrix regenerates Figure 12: the binary presence
// matrix (paper: 3,034 persistent of 28,781; 16.6-day mean lifetime).
func BenchmarkFig12ChurnMatrix(b *testing.B) {
	runExperiment(b, "fig12", map[string]string{
		"always-present nodes":      "persistent",
		"mean node lifetime (days)": "lifetime_days",
	})
}

// BenchmarkFig13DailyChurn regenerates Figure 13: daily arrivals and
// departures (paper: ≈708/day, 8.6%).
func BenchmarkFig13DailyChurn(b *testing.B) {
	runExperiment(b, "fig13", map[string]string{
		"mean daily departures": "departures",
		"daily departure share": "share_pct",
	})
}

// BenchmarkAddrComposition regenerates the §IV-A2 ADDR-composition
// scalars (paper: 14.9% reachable / 85.1% unreachable).
func BenchmarkAddrComposition(b *testing.B) {
	runExperiment(b, "addrmix", map[string]string{
		"reachable share": "reachable_pct",
	})
}

// BenchmarkResyncTime regenerates the §IV-D restart measurement (paper:
// 11 min 14 s to resynchronize).
func BenchmarkResyncTime(b *testing.B) {
	runExperiment(b, "resync", nil)
}

// BenchmarkSyncDepartures regenerates the §IV-D synchronized-departure
// contrast (paper: 3.9/10 min in 2019 vs 7.6/10 min in 2020).
func BenchmarkSyncDepartures(b *testing.B) {
	runExperiment(b, "syncdep", map[string]string{
		"2020/2019 ratio": "ratio",
	})
}

// BenchmarkHijackPartition runs the §IV-A1 extension: a live AS-hijack
// partition over the Table I hosting distribution.
func BenchmarkHijackPartition(b *testing.B) {
	runExperiment(b, "hijack", map[string]string{
		"nodes isolated directly": "isolated_pct",
	})
}
