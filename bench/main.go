// Command bench is the repository's benchmark of record: five
// whole-experiment workloads, each run in a fresh child process, with
// end-to-end metrics measured untraced and a separate traced mode that
// yields per-layer numbers. See README.md in this directory.
//
//	go run ./bench -all -seed 7            every workload, one JSON document
//	go run ./bench -workload tcp_crawl     one workload, result on the last line
//	go run ./bench -all -trace 1           per-layer metrics
//	go run ./bench -repeat 2               run-to-run gaps against the bounds
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// asMainEnv marks a process as a benchmark child. The test binary
// re-executes itself with it set, so children of a test run this
// program's main instead of the tests.
const asMainEnv = "REPRO_BENCH_AS_MAIN"

// outcome is what the benchmark reports for one workload.
type outcome struct {
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	FailShare float64  `json:"fail_share"`
	Digest    string   `json:"output_digest"`
	Metrics   metrics  `json:"metrics"`
	PerLayer  metrics  `json:"per_layer,omitempty"`
	Problems  []string `json:"problems,omitempty"`
	Notes     []string `json:"notes,omitempty"`
}

func (o *outcome) absorb(r *runResult) {
	o.Attempted += r.Attempted
	o.Failed += r.Failed
	o.Problems = append(o.Problems, r.Problems...)
	o.Notes = append(o.Notes, r.Notes...)
}

// check counts one parent-side output check.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.Attempted++
	if !ok {
		o.Failed++
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) seal() {
	o.Correct = o.Failed == 0 && o.Attempted > 0
	if o.Attempted > 0 {
		o.FailShare = float64(o.Failed) / float64(o.Attempted)
	}
}

// spawn runs one child process on cfg and decodes the JSON it prints.
func spawn(cfg config, into any) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self,
		"-child", cfg.mode,
		"-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[cfg.trace],
		"-smoke="+strconv.FormatBool(cfg.smoke),
		"-tmp", cfg.tmp,
		"-depth", strconv.Itoa(cfg.depth),
		"-t0", strconv.FormatInt(time.Now().UnixNano(), 10),
	)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s child: %w", cfg.workload, cfg.mode, err)
	}
	if err := json.Unmarshal(out.Bytes(), into); err != nil {
		return fmt.Errorf("%s %s child: decode result: %w", cfg.workload, cfg.mode, err)
	}
	return nil
}

// child returns the settings of a child of the given mode for workload w.
func (c config) child(w workload, mode string) config {
	c.workload, c.mode = w.name, mode
	return c
}

// measure runs workload w untraced and reports its end-to-end metrics.
func measure(w workload, cfg config) (*outcome, error) {
	cfg.trace = false
	var main runResult
	if err := spawn(cfg.child(w, "run"), &main); err != nil {
		return nil, err
	}
	out := &outcome{Metrics: main.Metrics, Digest: main.Digest}
	out.absorb(&main)

	// Set-up is repeated in set-up-only children and reported as the
	// median, so one slow process start does not decide the metric.
	setups := []float64{main.ReadyS}
	extra := 4
	if cfg.smoke {
		extra = 1
	}
	for i := 0; i < extra; i++ {
		var s runResult
		if err := spawn(cfg.child(w, "setup"), &s); err != nil {
			return nil, err
		}
		setups = append(setups, s.ReadyS)
	}
	out.Metrics.set("setup_s", median(setups), "s", len(setups))

	if w.recheck {
		var again runResult
		if err := spawn(cfg.child(w, "check"), &again); err != nil {
			return nil, err
		}
		out.check(again.Rep0 == main.Rep0 && main.Rep0 != "",
			"rep 0 re-run in a fresh process rendered %.12s, the timed run %.12s", again.Rep0, main.Rep0)
	}
	for _, spec := range endToEnd {
		m, ok := out.Metrics[spec.name]
		out.check(ok && m.Value > 0, "metric %s missing or not positive", spec.name)
	}
	out.seal()
	return out, nil
}

// measureTraced reports workload w's per-layer metrics. It runs an
// untraced and a traced child on half the time budget each, so a traced
// measurement costs what an untraced one does; their rep-time ratio is
// the tracing overhead. A third child probes each layer in isolation.
func measureTraced(w workload, cfg config) (*outcome, error) {
	half := cfg.child(w, "run")
	half.seconds, half.trace = cfg.seconds/2, false
	var plain, traced runResult
	if err := spawn(half, &plain); err != nil {
		return nil, err
	}
	half.trace = true
	if err := spawn(half, &traced); err != nil {
		return nil, err
	}
	probe := cfg.child(w, "probes")
	probe.depth = int(traced.Layer["simnet.sched_depth_max"].Value)
	probes := metrics{}
	if err := spawn(probe, &probes); err != nil {
		return nil, err
	}

	out := &outcome{Metrics: plain.Metrics, Digest: plain.Digest, PerLayer: metrics{}}
	out.absorb(&plain)
	out.absorb(&traced)
	// The whole-run digest of an experiment workload depends on how many
	// reps fit the budget, so those are compared on rep 0 alone.
	same := plain.Digest == traced.Digest
	if plain.Rep0 != "" {
		same = plain.Rep0 == traced.Rep0
	}
	out.check(same, "traced and untraced runs produced different outputs")
	out.Metrics.set("setup_s", plain.ReadyS, "s", 1)

	base, with := plain.Metrics["rep_wall_s.p50"], traced.Metrics["rep_wall_s.p50"]
	if base.Value > 0 {
		out.PerLayer.set("trace_overhead_pct", 100*(with.Value/base.Value-1), "%", with.N)
	}
	// Every run prints every per-layer metric: one a workload does not
	// exercise (simnet.events on tcp_crawl, say) reads 0.
	for _, spec := range perLayer {
		if _, ok := out.PerLayer[spec.name]; ok {
			continue
		}
		if m, ok := traced.Layer[spec.name]; ok {
			out.PerLayer[spec.name] = m
		} else if m, ok := probes[spec.name]; ok {
			out.PerLayer[spec.name] = m
		} else {
			out.PerLayer.set(spec.name, 0, spec.unit, 0)
		}
	}
	out.seal()
	return out, nil
}

// document is the -all output.
type document struct {
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Trace     bool                `json:"trace"`
	Smoke     bool                `json:"smoke"`
	NumCPU    int                 `json:"nproc"`
	Workloads map[string]*outcome `json:"workloads"`
}

func runAll(cfg config, names []string) (*document, error) {
	doc := &document{Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Smoke: cfg.smoke,
		NumCPU: runtime.GOMAXPROCS(0), Workloads: map[string]*outcome{}}
	for _, name := range names {
		w, ok := workloadByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		fmt.Fprintf(os.Stderr, "bench: %s (seed %d, %.3g s, trace %v)\n", name, cfg.seed, cfg.seconds, cfg.trace)
		fn := measure
		if cfg.trace {
			fn = measureTraced
		}
		out, err := fn(w, cfg)
		if err != nil {
			return nil, err
		}
		doc.Workloads[name] = out
	}
	return doc, nil
}

// contractLine renders a single-workload result in the shape the
// benchmark driver reads: one JSON object with exactly the keys correct,
// attempted, failed and metrics, the metrics being exactly those
// BENCHMARK.json lists for the mode, each with a value and a unit.
func contractLine(out *outcome, specs []metricSpec, from metrics) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, map[string]value{}}
	for _, s := range specs {
		line.Metrics[s.name] = value{from[s.name].Value, s.unit}
	}
	return json.Marshal(line)
}

// describe prints what the contract line leaves out: sample counts, the
// output digest, notes and problems.
func describe(name string, out *outcome) {
	fmt.Printf("workload %s: output_digest %s\n", name, out.Digest)
	sets := []metrics{out.Metrics, out.PerLayer}
	for _, set := range sets {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := set[n]
			fmt.Printf("  %-32s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.N)
		}
	}
	for _, n := range out.Notes {
		fmt.Println("  note:", n)
	}
	for _, p := range out.Problems {
		fmt.Println("  problem:", p)
	}
}

// repeat runs the whole set k times in alternation and compares each
// end-to-end metric's run-to-run gap with its bound.
func repeat(cfg config, k int) error {
	values := map[string]map[string][]float64{}
	incorrect := 0
	for set := 0; set < k; set++ {
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "bench: set %d/%d: %s\n", set+1, k, w.name)
			out, err := measure(w, cfg)
			if err != nil {
				return err
			}
			if !out.Correct {
				incorrect++
				fmt.Printf("%s set %d: incorrect: %v\n", w.name, set+1, out.Problems)
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for _, s := range endToEnd {
				values[w.name][s.name] = append(values[w.name][s.name], out.Metrics[s.name].Value)
			}
		}
	}
	fmt.Printf("%-14s %-20s %12s %12s %12s %8s %8s\n", "workload", "metric", "min", "median", "max", "gap", "bound")
	over := 0
	for _, w := range workloads {
		for _, s := range endToEnd {
			xs := values[w.name][s.name]
			lo, mid, hi := quantile(xs, 0), median(xs), quantile(xs, 1)
			gap := (hi - lo) / mid
			flag := ""
			if gap > s.bound {
				flag = "  OVER"
				over++
			}
			fmt.Printf("%-14s %-20s %12.6g %12.6g %12.6g %7.2f%% %7.0f%%%s\n",
				w.name, s.name, lo, mid, hi, 100*gap, 100*s.bound, flag)
		}
	}
	if over > 0 || incorrect > 0 {
		return fmt.Errorf("%d metric gaps over their bound, %d incorrect runs", over, incorrect)
	}
	return nil
}

func cli() error {
	var (
		all     = flag.Bool("all", false, "run every workload and print one JSON document")
		name    = flag.String("workload", "", "run one workload; the last output line is the result")
		seed    = flag.Int64("seed", 7, "workload seed; rep i uses seed+i")
		seconds = flag.Float64("seconds", 12, "time budget of one workload's timed region")
		trace   = flag.Int("trace", 0, "1 = traced mode: per-layer metrics instead of end-to-end ones")
		repeatK = flag.Int("repeat", 0, "run the whole set K times and compare run-to-run gaps with the bounds")
		smoke   = flag.Bool("smoke", false, "smallest sizes, one rep: a functional check, not a measurement")
		outPath = flag.String("out", "", "also write the JSON document to this file")
		tmp     = flag.String("tmp", ".bench_build/tmp", "directory for cache dirs and span dumps")
		child   = flag.String("child", "", "internal: child mode")
		t0      = flag.Int64("t0", 0, "internal: parent's clock at spawn")
		depth   = flag.Int("depth", 0, "internal: scheduler depth for the simnet probe")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	cfg := config{workload: *name, mode: *child, seed: *seed, seconds: *seconds, trace: *trace != 0,
		smoke: *smoke, tmp: *tmp, t0: *t0, depth: *depth}
	if *child != "" {
		return childMain(cfg)
	}

	switch {
	case *repeatK > 0:
		return repeat(cfg, *repeatK)
	case *all || *name != "":
		names := []string{*name}
		if *all {
			names = names[:0]
			for _, w := range workloads {
				names = append(names, w.name)
			}
		}
		doc, err := runAll(cfg, names)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if *outPath != "" {
			if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
		if *all {
			_, err = fmt.Println(string(data))
			return err
		}
		out := doc.Workloads[*name]
		describe(*name, out)
		specs, from := endToEnd, out.Metrics
		if cfg.trace {
			specs, from = perLayer, out.PerLayer
		}
		line, err := contractLine(out, specs, from)
		if err != nil {
			return err
		}
		_, err = fmt.Println(string(line)) // the last line of output is the result
		return err
	default:
		flag.Usage()
		return errors.New("one of -all, -workload or -repeat is required")
	}
}

func main() {
	if err := cli(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
