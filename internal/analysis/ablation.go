package analysis

import (
	"context"
	"fmt"
	"time"

	"repro/internal/node"
	"repro/internal/par"
	"repro/internal/stats"
)

// This file implements the §V refinement ablation: the same network is
// run under the stock Bitcoin Core configuration and under each proposed
// refinement (tried-only ADDR responses, the 17-day eviction horizon,
// priority block relay), measuring connection success, relay delay, and
// observed synchronization.

// AblationVariant names one configuration under test.
type AblationVariant struct {
	// Name labels the variant.
	Name string
	// Policies is the intervention set every node in the variant runs.
	Policies node.PolicySet
}

// StockVariants returns the canonical ablation ladder: stock Bitcoin
// Core, each refinement alone, all three together, and the idealized
// broadcast upper bound.
func StockVariants() []AblationVariant {
	return []AblationVariant{
		{Name: "stock", Policies: node.MustPolicySet(node.StockPolicyName)},
		{Name: "tried-only-addr", Policies: node.MustPolicySet("tried-only-addr")},
		{Name: "17d-horizon", Policies: node.MustPolicySet("horizon-17d")},
		{Name: "priority-relay", Policies: node.MustPolicySet("priority-relay")},
		{Name: "all-refinements", Policies: node.MustPolicySet("tried-only-addr+horizon-17d+priority-relay")},
		{Name: "ideal-broadcast", Policies: node.MustPolicySet("ideal-broadcast")},
	}
}

// AblationRow is one variant's measured outcomes.
type AblationRow struct {
	// Variant identifies the configuration.
	Variant AblationVariant
	// DialSuccessRate is network-wide outbound successes/attempts.
	DialSuccessRate float64
	// ColdStartSuccessRate is a fresh node's dial success during its
	// first five minutes under this variant's gossip (the Figure 7
	// setting) — where the §V addressing refinements bite.
	ColdStartSuccessRate float64
	// MeanObservedSync is the Figure 1 metric under this variant.
	MeanObservedSync float64
	// MeanBlockRelay and MaxBlockRelay summarize last-connection block
	// relay delays.
	MeanBlockRelay, MaxBlockRelay time.Duration
	// MeanOutdegree is the average outbound connection count.
	MeanOutdegree float64
}

// AblationResult is the §V comparison table.
type AblationResult struct {
	// Rows, in StockVariants order.
	Rows []AblationRow
}

// RunAblation measures every variant on an identical workload, plus a
// cold-start connection experiment per variant for the addressing
// refinements. Variants run concurrently (par.Replicate); each writes
// its row into a variant-indexed slot, so Rows keeps StockVariants
// order and every variant still sees the identical base seed.
func RunAblation(ctx context.Context, base PropagationConfig, variants []AblationVariant) (*AblationResult, error) {
	if len(variants) == 0 {
		variants = StockVariants()
	}
	res := &AblationResult{Rows: make([]AblationRow, len(variants))}
	err := par.Replicate(ctx, len(variants), func(ctx context.Context, i int) error {
		v := variants[i]
		cfg := base
		cfg.Policies = v.Policies
		out, err := RunPropagation(ctx, cfg)
		if err != nil {
			return fmt.Errorf("analysis: ablation %q: %w", v.Name, err)
		}
		cold, err := RunConnExperiment(ctx, ConnExperimentConfig{
			Seed:              base.Seed,
			LivePeers:         base.NumReachable / 2,
			Duration:          5 * time.Minute,
			PeerChurnPer10Min: 2,
			ConnDropEvery:     40 * time.Second,
			Policies:          v.Policies,
			Runs:              3,
		})
		if err != nil {
			return fmt.Errorf("analysis: ablation cold-start %q: %w", v.Name, err)
		}
		sum := summarizePropagation(out)
		res.Rows[i] = AblationRow{
			Variant:              v,
			MeanOutdegree:        out.MeanOutdegree,
			ColdStartSuccessRate: cold.SuccessRate,
			DialSuccessRate:      sum.dialSuccessRate,
			MeanObservedSync:     sum.meanObservedSync,
			MeanBlockRelay:       sum.meanBlockRelay,
			MaxBlockRelay:        sum.maxBlockRelay,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// propagationSummary holds the numbers the §V tables (ablation rows and
// intervention cells) report of one propagation run. A quantity with no
// sample behind it is zero.
type propagationSummary struct {
	dialSuccessRate  float64
	meanObservedSync float64
	meanBlockRelay   time.Duration
	maxBlockRelay    time.Duration
}

func summarizePropagation(out *PropagationResult) propagationSummary {
	var s propagationSummary
	if out.DialAttempts > 0 {
		s.dialSuccessRate = float64(out.DialSuccesses) / float64(out.DialAttempts)
	}
	if len(out.ObservedSyncSamples) > 0 {
		s.meanObservedSync = stats.Mean(out.ObservedSyncSamples)
	}
	if len(out.BlockRelays) > 0 {
		var sum time.Duration
		for _, o := range out.BlockRelays {
			sum += o.LastDelay
			if o.LastDelay > s.maxBlockRelay {
				s.maxBlockRelay = o.LastDelay
			}
		}
		s.meanBlockRelay = sum / time.Duration(len(out.BlockRelays))
	}
	return s
}

// RelayDelayStats summarizes a relay-delay distribution (Figures 10/11).
type RelayDelayStats struct {
	// Count is the number of (node, object) observations.
	Count int
	// Mean, Max, P50, P90, P99, P997 are in seconds. P997 approximates
	// the maximum the paper would observe in its ~288-observation
	// two-day single-node sample (1/288 ≈ the 99.7th percentile); the
	// raw Max over our much larger sample sits deeper in the tail.
	Mean, Max, P50, P90, P99, P997 float64
	// Series is the raw per-observation delay series in seconds (for
	// figure output).
	Series []float64
}

// SummarizeRelays folds observations into RelayDelayStats.
func SummarizeRelays(obs []RelayObservation) RelayDelayStats {
	out := RelayDelayStats{Count: len(obs)}
	if len(obs) == 0 {
		return out
	}
	out.Series = RelayDelaysSeconds(obs)
	s := stats.MustSummarize(out.Series)
	qs := stats.Quantiles(out.Series, []float64{0.5, 0.9, 0.99, 0.9965})
	out.Mean, out.Max = s.Mean, s.Max
	out.P50, out.P90, out.P99, out.P997 = qs[0], qs[1], qs[2], qs[3]
	return out
}
