package obs

import (
	"fmt"
	"strings"
)

// String renders the snapshot deterministically, one metric per line,
// sorted by kind then name. Two same-seed experiment runs must produce
// byte-identical output — the property the determinism golden tests
// compare.
func (s *Snapshot) String() string {
	var b strings.Builder
	for _, nv := range s.Counters {
		fmt.Fprintf(&b, "counter %s %d\n", nv.Name, nv.Value)
	}
	for _, nv := range s.Gauges {
		fmt.Fprintf(&b, "gauge %s %d\n", nv.Name, nv.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "histogram %s count=%d sum=%d min=%d max=%d p50=%d p90=%d p99=%d\n",
			h.Name, h.Count, h.Sum, h.Min, h.Max, h.P50, h.P90, h.P99)
	}
	return b.String()
}

// Rows flattens the snapshot into (kind, name, value) rows for CSV
// sidecars; histograms expand into one row per summary statistic.
func (s *Snapshot) Rows() [][]string {
	var rows [][]string
	for _, nv := range s.Counters {
		rows = append(rows, []string{"counter", nv.Name, fmt.Sprint(nv.Value)})
	}
	for _, nv := range s.Gauges {
		rows = append(rows, []string{"gauge", nv.Name, fmt.Sprint(nv.Value)})
	}
	for _, h := range s.Histograms {
		for _, stat := range []struct {
			suffix string
			value  int64
		}{
			{"count", h.Count}, {"sum", h.Sum}, {"min", h.Min},
			{"max", h.Max}, {"p50", h.P50}, {"p90", h.P90}, {"p99", h.P99},
		} {
			rows = append(rows, []string{
				"histogram", h.Name + "." + stat.suffix, fmt.Sprint(stat.value),
			})
		}
	}
	return rows
}
