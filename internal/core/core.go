// Package core is the orchestration layer of the reproduction: a registry
// of every experiment in the paper's evaluation (each figure and table),
// shared configuration, result reporting, and text/CSV rendering. The
// cmd/ binaries, the examples, and the repository-level benchmarks all
// drive experiments through this package.
package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Options tune an experiment run.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// Scale multiplies the snapshot-study population sizes relative to
	// the paper's measured network (1.0 = full 694K-address scale).
	Scale float64
	// NetSize is the live-node count for message-level simulations.
	NetSize int
	// Quick selects reduced durations/populations for smoke runs.
	Quick bool
	// Workers is the intra-experiment fan-out width for the crawl and
	// scan loops (0 = GOMAXPROCS). Results are identical at any width,
	// so it is not part of any result cache key.
	Workers int
	// Policies optionally restricts the intervention-grid experiment
	// (fig_interv) to stock versus this policy set (a canonical
	// node.ParsePolicySet encoding, e.g. "tried-only-addr+horizon-17d").
	// Empty runs the full policy axis. Unlike Workers it changes
	// results, so it participates in result cache keys.
	Policies string
}

// withDefaults fills the zero Options.
func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale == 0 {
		if o.Quick {
			o.Scale = 0.02
		} else {
			o.Scale = 0.30
		}
	}
	if o.NetSize == 0 {
		if o.Quick {
			o.NetSize = 40
		} else {
			o.NetSize = 120
		}
	}
	return o
}

// Metric is one reported quantity with its paper-side counterpart.
type Metric struct {
	// Name identifies the quantity.
	Name string
	// Value is the measured result.
	Value string
	// Paper is the value the paper reports (empty when the paper gives
	// none).
	Paper string
}

// Table is a rectangular result suitable for CSV output.
type Table struct {
	// Name labels the table (used as the CSV file stem).
	Name string
	// Header holds the column names.
	Header []string
	// Rows holds the data.
	Rows [][]string
}

// Report is an experiment's outcome.
type Report struct {
	// ID and Title identify the experiment.
	ID, Title string
	// Metrics are the headline paper-vs-measured comparisons.
	Metrics []Metric
	// Tables carry the series/figure data.
	Tables []Table
	// Notes carries free-form commentary (calibration caveats etc.).
	Notes []string
	// Series holds the experiment's sim-time metric series, written by
	// WriteCSV as the <id>_timeseries.csv sidecar and rendered as
	// sparklines by WriteHTMLReport. Like Tables, it is deterministic:
	// same-seed runs produce byte-identical CSV at any worker count.
	Series *obs.SeriesSet
}

// AddMetric appends a metric.
func (r *Report) AddMetric(name, value, paper string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Paper: paper})
}

// AddMetricf formats a float metric.
func (r *Report) AddMetricf(name string, value float64, format, paper string) {
	r.AddMetric(name, fmt.Sprintf(format, value), paper)
}

// Render writes a human-readable report.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s — %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	nameWidth := 0
	for _, m := range r.Metrics {
		if len(m.Name) > nameWidth {
			nameWidth = len(m.Name)
		}
	}
	for _, m := range r.Metrics {
		line := fmt.Sprintf("  %-*s  %s", nameWidth, m.Name, m.Value)
		if m.Paper != "" {
			line += fmt.Sprintf("   (paper: %s)", m.Paper)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	for i := range r.Tables {
		if err := renderTable(w, &r.Tables[i]); err != nil {
			return err
		}
	}
	return nil
}

// renderTable pretty-prints one table, truncating long series.
func renderTable(w io.Writer, t *Table) error {
	const maxRows = 24
	if _, err := fmt.Fprintf(w, "  -- %s --\n", t.Name); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	shown := t.Rows
	truncated := 0
	if len(shown) > maxRows {
		truncated = len(shown) - maxRows
		shown = shown[:maxRows]
	}
	for _, row := range shown {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		b.WriteString("  ")
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c + "  ")
			}
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	for _, row := range shown {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	if truncated > 0 {
		if _, err := fmt.Fprintf(w, "  ... (%d more rows)\n", truncated); err != nil {
			return err
		}
	}
	return nil
}

// Experiment is one registered reproduction target.
type Experiment struct {
	// ID is the figure/table identifier ("fig1" … "table1", "ablation").
	ID string
	// Title describes the experiment.
	Title string
	// Section cites the paper section.
	Section string
	// Run executes the experiment. It honours ctx: long simulations poll
	// it periodically and return ctx.Err() mid-run when cancelled.
	Run func(context.Context, Options) (*Report, error)
}

// registry returns all experiments, built lazily so the experiment files
// can live alongside their implementations.
func registry() []Experiment {
	return []Experiment{
		fig1Experiment(),
		fig3Experiment(),
		fig4Experiment(),
		fig5Experiment(),
		table1Experiment(),
		fig6Experiment(),
		fig7Experiment(),
		fig8Experiment(),
		fig10Experiment(),
		fig11Experiment(),
		fig12Experiment(),
		fig13Experiment(),
		addrMixExperiment(),
		figEstPopExperiment(),
		figEstDegreeExperiment(),
		resyncExperiment(),
		syncDepExperiment(),
		ablationExperiment(),
		figIntervExperiment(),
		hijackExperiment(),
		chaosExperiment(),
	}
}

// Experiments lists every registered experiment sorted by ID.
func Experiments() []Experiment {
	out := registry()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment. Besides the public registry it resolves the
// hidden crash-drill experiment (SelftestCrashID), which is addressable
// by ID but never part of Experiments() batches.
func ByID(id string) (Experiment, bool) {
	if id == SelftestCrashID {
		return selftestCrashExperiment(), true
	}
	for _, e := range registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
