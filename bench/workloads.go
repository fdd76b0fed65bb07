package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(*run) error
	// recheck asks the parent to run rep 0 again in a fresh process and
	// compare output digests. It has to be a fresh process:
	// core.crawlSeriesFor and core.estFor memoise per (seed, scale) for
	// the life of a process, so an in-process re-run of a crawl
	// experiment would compare a result with itself.
	recheck bool
}

var workloads = []workload{
	{
		name:    "relay_steady",
		why:     "steady block/tx relay (fig10 quick): simnet scheduler and transmit, node pump and handlers, mempool, tx hashing and the tracer do the work",
		run:     relaySteady.run,
		recheck: true,
	},
	{
		name:    "interv_grid",
		why:     "8 short churned sims per rep (fig_interv quick): node/addrman construction, failed dials and clearing big tables weigh as much as relay",
		run:     intervGrid.run,
		recheck: true,
	},
	{
		name:    "crawl_series",
		why:     "snapshot study (fig4, scale 0.10): crawler, netgen, addridx, estimate only; no simnet or node, so sim optimisations must not move it",
		run:     crawlSeries.run,
		recheck: true,
	},
	{
		name: "service_mix",
		why:  "reprod over HTTP: cold runs write the cache, identical pairs join one flight, a warm loop reads it back; writes beside reads on one layer",
		run:  serviceMix,
	},
	{
		name: "tcp_crawl",
		why:  "real loopback TCP: big ADDR pages through wire+tcpnet, then short handshake-getaddr-close sessions against a live node",
		run:  tcpCrawl,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// experiment is a workload that runs one core experiment per rep, each
// rep on its own seed. The seeds must differ: the crawl experiments
// memoise per (seed, scale), so a repeated seed would time a map lookup.
type experiment struct {
	id string
	// opts is the per-rep input. Workers is pinned to 1 in the sim
	// workloads because fig_interv otherwise fans its cells out over
	// par and the benchmark would time the scheduler of a shared box.
	opts  core.Options
	smoke core.Options
	// checkAllWorkers makes the check child run at Workers = nproc, so
	// the digest comparison also proves the result is the same at any
	// fan-out width.
	checkAllWorkers bool
	// check inspects rep 0's report.
	check func(*run, *core.Report)
}

var relaySteady = experiment{
	id:    "fig10",
	opts:  core.Options{Quick: true, Workers: 1},
	smoke: core.Options{Quick: true, Workers: 1, NetSize: 4},
	check: func(r *run, rep *core.Report) {
		r.op(core.EventsProcessed(rep) > 0, "fig10 report carries no simnet events")
		want := []string{"mean delay", "max delay (paper-size sample)", "max delay (all observations)",
			"p90 delay", "p99 delay", "observations"}
		have := map[string]bool{}
		for _, m := range rep.Metrics {
			have[m.Name] = m.Value != ""
		}
		for _, name := range want {
			r.op(have[name], "fig10 report lacks metric %q", name)
		}
	},
}

var intervGrid = experiment{
	id:   "fig_interv",
	opts: core.Options{Quick: true, Workers: 1, Policies: "tried-only-addr+horizon-17d+priority-relay"},
	// 16 is the smallest population the grid accepts (8 live peers per
	// cell); "stock" halves the cell count.
	smoke: core.Options{Quick: true, Workers: 1, NetSize: 16, Policies: "stock"},
}

var crawlSeries = experiment{
	id:              "fig4",
	opts:            core.Options{Scale: 0.10, Workers: 1},
	smoke:           core.Options{Scale: 0.005, Workers: 1},
	checkAllWorkers: true,
}

// renderBundle renders a report the way every front end does after a
// run: text, CSV sidecars, HTML page. It returns the bytes that feed the
// output digest: the text and every table and metrics CSV, which are
// deterministic for a seed.
//
// The <id>_timeseries.csv sidecar is rendered and timed but left out of
// the digest. At the commit this benchmark was written on, its last
// sample of the scheduler counters is not stable: fig10 quick on seed
// 179 executes 61 488 or 61 489 events in the final sampling interval
// from one process to the next (every other byte identical), and the
// fresh-process re-run check must be able to fail hard.
func renderBundle(l *spanLog, rep *core.Report, repIdx int) ([]byte, error) {
	parent := l.start("core.bundle", -1, repIdx)
	defer l.end(parent)

	var buf bytes.Buffer
	id := l.start("core.render", parent, repIdx)
	err := rep.Render(&buf)
	l.end(id)
	if err != nil {
		return nil, err
	}

	id = l.start("core.csv", parent, repIdx)
	files, err := rep.CSVFiles()
	l.end(id)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		if strings.HasSuffix(f.Name, "_timeseries.csv") {
			continue
		}
		buf.WriteString(f.Name)
		buf.Write(f.Data)
	}

	id = l.start("core.html", parent, repIdx)
	err = core.RenderHTMLReport(io.Discard, []*core.Report{rep})
	l.end(id)
	return buf.Bytes(), err
}

func sha(data []byte) string {
	s := sha256.Sum256(data)
	return hex.EncodeToString(s[:])
}

func (e experiment) run(r *run) error {
	exp, ok := core.ByID(e.id)
	if !ok {
		return fmt.Errorf("experiment %q is not registered", e.id)
	}
	opts := e.opts
	if r.cfg.smoke {
		opts = e.smoke
	}
	ctx := context.Background()

	if r.cfg.mode == "check" {
		opts.Seed = r.cfg.seed
		if e.checkAllWorkers {
			opts.Workers = runtime.GOMAXPROCS(0)
		}
		rep, err := exp.Run(ctx, opts)
		if err != nil {
			return err
		}
		out, err := renderBundle(r.spans, rep, 0)
		r.res.Rep0 = sha(out)
		return err
	}

	if only, err := r.ready(); only || err != nil {
		return err
	}
	var walls, allocBytes, allocObjects, peaks []float64
	var first *core.Report
	for rep := 0; rep == 0 || (!r.cfg.smoke && r.within(1)); rep++ {
		opts.Seed = r.cfg.seed + int64(rep)
		// Every rep starts from a collected heap and a reset memory
		// high-water mark, as a fresh `reproduce -id` process would: the
		// garbage of rep i must not decide when the collector runs in
		// rep i+1, and each rep's memory peak is read on its own.
		runtime.GC()
		resetPeakRSS()
		win := openAllocWindow()
		id := r.spans.start("core.run", -1, rep)
		report, err := exp.Run(ctx, opts)
		wall := r.spans.end(id)
		b, n := win.close()
		r.op(err == nil, "rep %d (seed %d): %v", rep, opts.Seed, err)
		if err != nil {
			continue
		}
		peak, err := peakRSSMiB()
		if err != nil {
			return err
		}
		walls = append(walls, wall.Seconds())
		allocBytes = append(allocBytes, b)
		allocObjects = append(allocObjects, n)
		peaks = append(peaks, peak)
		out, err := renderBundle(r.spans, report, rep)
		r.op(err == nil, "rep %d render: %v", rep, err)
		r.digest.Write(out)
		if rep == 0 {
			first = report
			r.res.Rep0 = sha(out)
		}
	}
	r.stopProfile()
	if first == nil {
		return nil // every rep failed; the parent reports it
	}

	// An experiment workload has one kind of operation, so its small
	// operation is the rep again: op_ms and ops_per_s restate the rep
	// times, and only service_mix and tcp_crawl add information there.
	m := r.res.Metrics
	m.set("rep_wall_s.p50", median(walls), "s", len(walls))
	m.set("alloc_mib_per_rep", median(allocBytes)/(1<<20), "MiB", len(allocBytes))
	m.set("allocs_per_rep", median(allocObjects), "count", len(allocObjects))
	m.set("peak_rss_mib", median(peaks), "MiB", len(peaks))
	m.set("op_ms.p50", 1e3*median(walls), "ms", len(walls))
	m.set("ops_per_s", 1/mean(walls), "1/s", len(walls))

	if e.check != nil {
		e.check(r, first)
	}
	simCounts(r.res.Layer, first, walls[0], allocBytes[0])
	if r.cfg.trace {
		// Rendering is priced on a sample of its own, after the profile
		// has stopped: one render per rep is too few for a median.
		renders := 200
		if r.cfg.smoke {
			renders = 20
		}
		for i := 0; i < renders; i++ {
			if _, err := renderBundle(r.spans, first, 0); err != nil {
				return err
			}
		}
		for _, name := range []string{"render", "csv", "html"} {
			d := r.spans.seconds("core." + name)
			r.res.Layer.set("core."+name+"_us", 1e6*median(d), "us", len(d))
		}
	}
	return nil
}

// seriesFold folds the points of one report series; it returns 0 when
// the report does not carry the series.
func seriesFold(set *obs.SeriesSet, name string, fold func(acc, v float64) float64) float64 {
	s, ok := set.Get(name)
	if !ok {
		return 0
	}
	var acc float64
	for _, p := range s.Points {
		acc = fold(acc, p.V)
	}
	return acc
}

func add(acc, v float64) float64 { return acc + v }

// simCounts publishes the counts rep 0's report already exposes. They
// repeat exactly for a seed. fig_interv and fig4 expose none of the
// simnet series, so these read 0 there.
func simCounts(out metrics, rep *core.Report, wallS, allocBytes float64) {
	total := func(name string) float64 { return seriesFold(rep.Series, name, add) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	events := total("simnet.sched.executed.delta")
	out.set("simnet.events", events, "count", 0)
	out.set("simnet.transmits", total("simnet.transmit.count.delta"), "count", 0)
	out.set("simnet.sched_depth_max", seriesFold(rep.Series, "simnet.sched.depth.max", math.Max), "count", 0)
	reused, fresh := total("simnet.sched.events.reused.delta"), total("simnet.sched.events.alloc.delta")
	out.set("simnet.event_reuse_ratio", ratio(reused, reused+fresh), "ratio", 0)
	attempts := total("node.dial.attempt.delta")
	out.set("node.dial_attempts", attempts, "count", 0)
	out.set("node.dial_success_ratio", ratio(total("node.dial.success.delta"), attempts), "ratio", 0)
	out.set("node.pings", total("node.ping.sent.delta"), "count", 0)
	out.set("chain.blocks_mined", total("prop.blocks.mined.delta"), "count", 0)
	var observations float64
	for _, m := range rep.Metrics {
		if m.Name == "observations" {
			observations, _ = strconv.ParseFloat(strings.TrimSpace(m.Value), 64)
		}
	}
	out.set("analysis.relay_observations", observations, "count", 0)
	out.set("simnet.ns_per_event", ratio(1e9*wallS, events), "ns", 0)
	out.set("simnet.bytes_per_event", ratio(allocBytes, events), "B", 0)
}
