package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
)

// chaosHealthCounters are the node-defence totals chaos reports, in
// report order: each is a registry counter summed over every node and
// every restart.
var chaosHealthCounters = []struct{ label, name string }{
	{"keepalive pings", "node.ping.sent"},
	{"stall evictions", "node.evict.stall"},
	{"block-stall evictions", "node.evict.blockstall"},
	{"handshake evictions", "node.evict.handshake"},
	{"dial backoffs armed", "node.backoff.armed"},
}

// chaosExperiment runs the fault-injection chaos scenario: the
// robustness counterpart of §IV-D. It answers whether, under the
// adversities the paper identifies (message loss, latency spikes,
// partitions, crash/restart churn), the node-side defences — keepalive
// with stall eviction, block-download stall detection, handshake
// timeouts, reconnect backoff — return every node to the network tip
// once conditions clear, and how long the recovery takes.
func chaosExperiment() Experiment {
	return Experiment{
		ID:      "chaos",
		Title:   "Fault-injection chaos scenario: partition, crash wave, lossy links",
		Section: "§IV-D (robustness extension)",
		Run: func(ctx context.Context, opts Options) (*Report, error) {
			opts = opts.withDefaults()
			cfg := analysis.ChaosConfig{
				Seed:     opts.Seed,
				NumNodes: opts.NetSize / 8,
			}
			if opts.Quick {
				cfg.NumNodes = 8
				cfg.Duration = 30 * time.Minute
			}
			res, err := analysis.RunChaos(ctx, cfg)
			if err != nil {
				return nil, err
			}
			rep := &Report{ID: "chaos", Title: "Chaos recovery"}
			rep.AddMetric("converged",
				fmt.Sprintf("%v (%d/%d nodes at tip)",
					res.Converged, res.SyncedNodes, res.TotalNodes), "")
			rep.AddMetricf("miner height", float64(res.MinerHeight), "%.0f", "")
			rep.AddMetricf("height spread", float64(res.HeightSpread), "%.0f", "")
			recovery := "not within window"
			if res.RecoveryTime > 0 {
				recovery = res.RecoveryTime.Round(time.Second).String()
			}
			rep.AddMetric("recovery after last disruption", recovery, "")
			rep.AddMetricf("persistent share (crash-tracked)",
				100*res.PersistentShare, "%.0f%%", "")
			for _, c := range chaosHealthCounters {
				rep.AddMetricf(c.label, float64(res.Metrics.Counter(c.name)), "%.0f", "")
			}

			rep.AddMetric("trace digest", res.TraceDigest, "")
			rep.AddMetricf("trace events", float64(res.TraceTotal), "%.0f", "")
			rep.AddMetricf("trace events dropped (ring)",
				float64(res.TraceDropped), "%.0f", "")
			rep.Series = res.Series

			// The fault layer's counters, zero ones included: faults.New
			// registers every one of them up front.
			t := Table{Name: "fault-counters", Header: []string{"counter", "count"}}
			for _, c := range res.Metrics.Counters {
				if strings.HasPrefix(c.Name, "faults.") {
					t.Rows = append(t.Rows, []string{c.Name, fmt.Sprint(c.Value)})
				}
			}
			rep.Tables = append(rep.Tables, t)

			// Full registry snapshot as a CSV sidecar: scheduler, dial,
			// transmit, node-health, and churn series in one table. Named
			// obs-metrics: WriteCSV reserves <id>_metrics.csv for the
			// report's own metric list.
			mt := Table{Name: "obs-metrics", Header: []string{"kind", "name", "value"}}
			mt.Rows = res.Metrics.Rows()
			rep.Tables = append(rep.Tables, mt)
			rep.Notes = append(rep.Notes,
				"fault schedule and trace are fully determined by the seed (same seed → identical run)",
				"the scenario heals and disables faults before the end; convergence demonstrates the recovery machinery, not fault-free luck")
			return rep, nil
		},
	}
}
