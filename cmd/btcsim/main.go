// Command btcsim runs a message-level Bitcoin network simulation and
// reports propagation and synchronization statistics.
//
// Usage:
//
//	btcsim [-nodes 120] [-hours 4] [-churn 1.5]
//	       [-policies tried-only-addr+horizon-17d] [-txs 100] [-compact]
//	       [-seed 1] [-runs 1] [-workers 0] [-trace-out trace.ndjson]
//	       [-pprof] [-pprof-addr 127.0.0.1:6060]
//
// -policies applies a composable intervention policy set
// (node.ParsePolicySet syntax) to every node: addressing, relay
// (priority-relay is the paper's §V refinement, ideal-broadcast the
// theoretical ideal), and peering interventions in one encoding; the
// default "stock" is Bitcoin Core behaviour (round-robin relay).
// With -runs N the simulation is replicated on paired
// seeds across -workers goroutines; per-run summaries print in run
// order regardless of completion order, and Ctrl-C cancels mid-run.
// -trace-out streams every propagation-span trace event (deliveries
// and relays, one JSON object per line) to a file as the simulation
// runs; with -pprof the same server also exposes live metrics in
// Prometheus text format at /metrics.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds the parsed command line.
type options struct {
	nodes     int
	hours     float64
	churn     float64
	policies  string
	txs       int
	compact   bool
	seed      int64
	runs      int
	workers   int
	traceOut  string
	pprof     bool
	pprofAddr string
}

// run parses args and runs the simulation. It returns the exit status: 2
// for a command line it rejects, before any work is done, and 1 for a
// simulation that failed.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("btcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&o.nodes, "nodes", 120, "reachable full nodes (at least 3)")
	fs.Float64Var(&o.hours, "hours", 4, "measured virtual hours (above 0)")
	fs.Float64Var(&o.churn, "churn", 1.5, "node departures per 10 virtual minutes")
	fs.StringVar(&o.policies, "policies", node.StockPolicyName, "intervention policy set applied to every node (e.g. \"tried-only-addr+horizon-17d\"; \"stock\" = none)")
	fs.IntVar(&o.txs, "txs", 100, "background transactions per block interval")
	fs.BoolVar(&o.compact, "compact", false, "use BIP-152 compact block relay")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.IntVar(&o.runs, "runs", 1, "replications on paired seeds (seed + i*7919)")
	fs.IntVar(&o.workers, "workers", 0, "replication worker goroutines (0 = GOMAXPROCS)")
	fs.StringVar(&o.traceOut, "trace-out", "", "stream trace events (NDJSON, one event per line) to this file")
	fs.BoolVar(&o.pprof, "pprof", false, "serve net/http/pprof profiles while the simulation runs")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "127.0.0.1:6060", "pprof listen address (with -pprof; port 0 picks a free port)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := o.validate(); err != nil {
		fmt.Fprintln(stderr, "btcsim:", err)
		fs.Usage()
		return 2
	}
	if err := simulate(o, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "btcsim:", err)
		return 1
	}
	return 0
}

// duration is -hours as the measured phase length.
func (o options) duration() time.Duration {
	return time.Duration(o.hours * float64(time.Hour))
}

// validate rejects the flag values the simulation would otherwise replace
// with a default or fail on after set-up.
func (o options) validate() error {
	switch {
	case !(o.hours > 0) || o.duration() <= 0:
		return fmt.Errorf("-hours must be above 0, got %v", o.hours)
	case o.nodes < 3:
		return fmt.Errorf("-nodes must be at least 3, got %d", o.nodes)
	case o.txs < 0:
		return fmt.Errorf("-txs must not be negative, got %d", o.txs)
	case o.runs < 1:
		return fmt.Errorf("-runs must be at least 1, got %d", o.runs)
	}
	return nil
}

// simulate runs the replications and prints their summaries.
func simulate(o options, stdout, stderr io.Writer) error {
	// A shared registry lets -pprof expose live /metrics across all
	// replications. It only feeds the HTTP view: per-run results and
	// stdout still come from each run's own accounting, so output stays
	// deterministic even though concurrent runs merge their counters
	// here.
	var liveReg *obs.Registry
	if o.pprof {
		srv, err := obs.StartPprof(o.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		defer srv.Close()
		liveReg = obs.NewRegistry()
		srv.Handle("/metrics", obs.PrometheusHandler(liveReg))
		// Live proc.* gauges (heap, goroutines, GC) ride the same registry
		// on a wall ticker. Like everything on the live view they never
		// touch stdout, so output determinism is unaffected.
		stopRes := obs.NewResourceSampler(liveReg).Start(2 * time.Second)
		defer stopRes()
		fmt.Fprintf(stdout, "pprof listening on http://%s/debug/pprof/ (metrics at /metrics)\n", srv.Addr)
	}

	policySet, err := node.ParsePolicySet(o.policies)
	if err != nil {
		return err
	}

	base := analysis.PropagationConfig{
		Seed:                    o.seed,
		NumReachable:            o.nodes,
		Duration:                o.duration(),
		TxPerBlock:              o.txs,
		Policies:                policySet,
		CompactBlocks:           o.compact,
		ChurnDeparturesPer10Min: o.churn,
		Metrics:                 liveReg,
	}

	traceClose := func() error { return nil }
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		w := obs.NewNDJSONWriter(f)
		// The sink is safe for concurrent runs; each line is one event,
		// but with -runs > 1 lines from different runs interleave in
		// completion order (split on the seed-dependent span IDs).
		base.TraceSink = w.Sink()
		var once sync.Once
		var closeErr error
		traceClose = func() error {
			// Close flushes and closes f; first sticky error wins. The
			// Once makes it safe to call from both the explicit
			// error-propagating site below and the deferred backstop.
			once.Do(func() {
				if err := w.Close(); err != nil {
					closeErr = fmt.Errorf("trace-out: %w", err)
				}
			})
			return closeErr
		}
		// Backstop: every return path — including a Ctrl-C that
		// cancels the runs mid-flight — flushes the buffered tail so
		// the file on disk is always complete, parseable NDJSON.
		defer traceClose() //nolint:errcheck // explicit call below reports it
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	start := time.Now()
	bufs := make([]bytes.Buffer, o.runs)
	err = par.ForEach(ctx, o.workers, o.runs, func(ctx context.Context, i int) error {
		cfg := base
		cfg.Seed = base.Seed + int64(i)*7919
		res, err := analysis.RunPropagation(ctx, cfg)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, cfg.Seed, err)
		}
		if o.runs > 1 {
			fmt.Fprintf(&bufs[i], "-- run %d (seed %d) --\n", i, cfg.Seed)
		}
		summarize(&bufs[i], res)
		return nil
	})
	if cerr := traceClose(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	// Wall time goes to stderr so stdout stays byte-identical across
	// same-seed invocations and worker counts.
	fmt.Fprintf(stderr, "simulated %d nodes for %v of virtual time x %d run(s) (%v wall)\n",
		base.NumReachable, base.Duration, o.runs, time.Since(start).Round(time.Millisecond))
	for i := range bufs {
		if _, err := bufs[i].WriteTo(stdout); err != nil {
			return err
		}
	}
	return nil
}

// summarize prints one run's headline statistics.
func summarize(w io.Writer, res *analysis.PropagationResult) {
	fmt.Fprintf(w, "blocks mined:            %d\n", res.BlocksMined)
	fmt.Fprintf(w, "mean outdegree:          %.2f\n", res.MeanOutdegree)
	if res.DialAttempts > 0 {
		fmt.Fprintf(w, "dial success rate:       %.1f%% (%d of %d)\n",
			100*float64(res.DialSuccesses)/float64(res.DialAttempts),
			res.DialSuccesses, res.DialAttempts)
	}
	if len(res.SyncSamples) > 0 {
		fmt.Fprintf(w, "true synchronization:    %.1f%%\n", 100*stats.Mean(res.SyncSamples))
	}
	if len(res.ObservedSyncSamples) > 0 {
		fmt.Fprintf(w, "observed synchronization: %.1f%% (Bitnodes-style monitor)\n",
			100*stats.Mean(res.ObservedSyncSamples))
	}
	blocks := analysis.SummarizeRelays(res.BlockRelays)
	txsRelay := analysis.SummarizeRelays(res.TxRelays)
	fmt.Fprintf(w, "block relay delay:       mean %.2fs max %.2fs (n=%d)\n",
		blocks.Mean, blocks.Max, blocks.Count)
	fmt.Fprintf(w, "tx relay delay:          mean %.2fs max %.2fs (n=%d)\n",
		txsRelay.Mean, txsRelay.Max, txsRelay.Count)
}
