// Command reproduce regenerates the paper's figures and tables.
//
// Usage:
//
//	reproduce -list
//	reproduce -id fig1 [-seed 1] [-scale 0.3] [-netsize 120] [-quick] [-csv out/]
//	reproduce -all [-quick] [-csv out/] [-report report.html] [-workers 4]
//	          [-flightrec crashdir/]
//	reproduce -render fig12
//
// Each experiment prints its measured metrics next to the paper's
// reported values; -csv additionally writes the underlying series
// (including <id>_timeseries.csv sim-time series sidecars), and
// -report renders every finished report into one self-contained HTML
// page with inline SVG sparklines of the key series.
// Experiments run concurrently on -workers goroutines (default
// GOMAXPROCS) with deterministic, worker-count-independent output;
// Ctrl-C cancels mid-simulation.
//
// A failing (or panicking) experiment does not stop the batch: the
// remaining experiments still run and render, each failure is
// summarised on stderr as "reproduce: FAILED <id>: <cause>", and the
// process exits non-zero.
//
// Stderr carries one "  resources: <id> ..." line per experiment (wall
// time, allocations, GC, peak heap, CPU); stdout, CSVs, and the HTML
// report stay byte-identical at any -workers count. -flightrec names a
// directory that receives a crash flight
// record (tracer ring, resource watermarks, panic stack) whenever an
// experiment dies by panic or deadline.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/node"
	"repro/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		list      = flag.Bool("list", false, "list experiments")
		id        = flag.String("id", "", "experiment(s) to run, comma-separated (see -list)")
		all       = flag.Bool("all", false, "run every experiment")
		seed      = flag.Int64("seed", 1, "random seed")
		scale     = flag.Float64("scale", 0, "population scale (0 = default)")
		netSize   = flag.Int("netsize", 0, "simulated live-node count (0 = default)")
		quick     = flag.Bool("quick", false, "reduced sizes for a fast smoke run")
		csvDir    = flag.String("csv", "", "also write series CSVs into this directory")
		render    = flag.String("render", "", "render an ASCII artifact (currently: fig12)")
		report    = flag.String("report", "", "write a self-contained HTML report (metrics + series sparklines) to this path")
		workers   = flag.Int("workers", 0, "experiment worker goroutines (0 = GOMAXPROCS)")
		policies  = flag.String("policies", "", "intervention policy set for fig_interv (e.g. \"tried-only-addr+horizon-17d\"; empty = full policy axis)")
		flightDir = flag.String("flightrec", "", "write crash flight records (flightrec-<id>.json) into this directory on panic/deadline")
	)
	flag.Parse()

	// Canonicalize -policies up front so a typo fails before any
	// experiment runs and the Options carry the stable encoding.
	if *policies != "" {
		set, err := node.ParsePolicySet(*policies)
		if err != nil {
			return err
		}
		*policies = set.String()
	}

	opts := core.Options{
		Seed:     *seed,
		Scale:    *scale,
		NetSize:  *netSize,
		Quick:    *quick,
		Workers:  *workers,
		Policies: *policies,
	}

	// Ctrl-C cancels the context; the simulations poll it and stop
	// mid-run, so a second signal is only needed if teardown hangs.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	// KeepGoing: one broken experiment must not cost the rest of the
	// batch. Failures are summarised per experiment on stderr after
	// everything has run, and the process still exits non-zero.
	runner := core.Runner{
		Workers:   *workers,
		Options:   opts,
		CSVDir:    *csvDir,
		Profiles:  os.Stderr,
		KeepGoing: true,
	}
	if *flightDir != "" {
		fr, err := obs.OpenFlightRecorder(*flightDir)
		if err != nil {
			return err
		}
		runner.FlightRecorder = fr
	}
	// The HTML report collects finished reports from the Runner's
	// ordered merge loop, so the page is deterministic at any -workers.
	var collected []*core.Report
	if *report != "" {
		runner.Collect = func(r *core.Report) { collected = append(collected, r) }
	}
	writeReport := func() error {
		if *report == "" {
			return nil
		}
		if err := core.WriteHTMLReport(*report, collected); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote HTML report to %s\n", *report)
		return nil
	}

	switch {
	case *list:
		for _, e := range core.Experiments() {
			fmt.Printf("%-10s %-12s %s\n", e.ID, e.Section, e.Title)
		}
		return nil

	case *render != "":
		return renderArtifact(ctx, *render, opts)

	case *all:
		start := time.Now()
		if err := runner.Run(ctx, core.Experiments(), os.Stdout); err != nil {
			return finishBatch(err, writeReport)
		}
		// Wall time is nondeterministic; keep stdout byte-identical
		// across worker counts.
		fmt.Fprintf(os.Stderr, "all experiments done in %v\n",
			time.Since(start).Round(time.Second))
		return writeReport()

	case *id != "":
		var exps []core.Experiment
		for _, one := range strings.Split(*id, ",") {
			one = strings.TrimSpace(one)
			e, ok := core.ByID(one)
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", one)
			}
			exps = append(exps, e)
		}
		if err := runner.Run(ctx, exps, os.Stdout); err != nil {
			return finishBatch(err, writeReport)
		}
		return writeReport()

	default:
		flag.Usage()
		return fmt.Errorf("one of -list, -id, -all, or -render is required")
	}
}

// finishBatch handles a Runner failure: for a KeepGoing batch it prints
// one stderr line per failed experiment, still writes the HTML report
// (the healthy experiments' results are real and already on stdout),
// and returns a compact error so main exits non-zero. Any other error
// (cancellation, I/O) passes through untouched.
func finishBatch(err error, writeReport func() error) error {
	var batch *core.BatchError
	if !errors.As(err, &batch) {
		return err
	}
	for _, f := range batch.Failures {
		fmt.Fprintf(os.Stderr, "reproduce: FAILED %s: %v\n", f.ID, firstLine(f.Err.Error()))
	}
	if werr := writeReport(); werr != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", werr)
	}
	return fmt.Errorf("%d of %d experiments failed", len(batch.Failures), batch.Total)
}

// firstLine clips a (possibly multi-line panic) message for the summary.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// renderArtifact draws figure artifacts that are pictures rather than
// series.
func renderArtifact(ctx context.Context, id string, opts core.Options) error {
	switch id {
	case "fig12":
		scale := opts.Scale
		if scale == 0 {
			scale = 0.05
		}
		res, err := analysis.RunChurnFigs(ctx, analysis.ChurnFigsConfig{
			Params: netgen.DefaultParams(opts.Seed, scale),
		})
		if err != nil {
			return err
		}
		fmt.Println(res.Matrix.Render(48, 100))
		fmt.Printf("persistent=%d of %d, mean lifetime %.1f days\n",
			res.PersistentCount, res.UniqueAddresses,
			res.MeanLifetime.Hours()/24)
		return nil
	default:
		return fmt.Errorf("no renderer for %q (try fig12)", id)
	}
}
