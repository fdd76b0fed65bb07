package analysis

import (
	"time"

	"repro/internal/stats"
)

// RelayDelaysSeconds converts last-connection delays to seconds.
func RelayDelaysSeconds(delays []time.Duration) []float64 {
	out := make([]float64, len(delays))
	for i, d := range delays {
		out[i] = d.Seconds()
	}
	return out
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

// SummarizeRelays folds last-connection delays into RelayDelayStats.
func SummarizeRelays(delays []time.Duration) RelayDelayStats {
	out := RelayDelayStats{Count: len(delays)}
	if len(delays) == 0 {
		return out
	}
	out.Series = RelayDelaysSeconds(delays)
	s := stats.MustSummarize(out.Series)
	qs := stats.Quantiles(out.Series, []float64{0.5, 0.9, 0.99, 0.9965})
	out.Mean, out.Max = s.Mean, s.Max
	out.P50, out.P90, out.P99, out.P997 = qs[0], qs[1], qs[2], qs[3]
	return out
}
