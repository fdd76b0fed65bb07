// Command benchguard compares `go test -bench -benchmem` output against
// a JSON baseline and fails when any benchmark's memory cost regresses.
// It is the CI tripwire for the hot paths the simulator runs per
// message: a counter increment, a relay pump or a codec round trip that
// starts allocating silently taxes every simulated message.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./internal/obs/ | benchguard -baseline BENCH_baseline.json
//	go test -run '^$' -bench . -benchmem ./internal/obs/ | benchguard -baseline BENCH_baseline.json -update
//
// Two gates run per baselined benchmark, both on quantities the code
// decides rather than the machine's speed:
//
//	B/op       relative with an absolute floor: fails only beyond both
//	           +10% and +64 bytes, so tiny benchmarks aren't flaky and
//	           big ones can't hide bloat
//	allocs/op  absolute: fails when the count grows by more than the
//	           entry's alloc_slack (default 0 — allocs/op is
//	           deterministic, so any growth is a real new allocation)
//
// Time is not gated here: wall-clock cost is judged end to end by
// `go run ./bench`, on paired runs of one machine.
//
// The baseline is the one list of gated benchmarks. A baseline entry
// missing from the output fails, so a deleted benchmark forces a
// deliberate baseline update; a benchmark in the output without an
// entry fails too, so a new one is gated from the start. Output without
// -benchmem columns fails: the gates cannot be silently skipped.
//
// An entry at 0 allocs/op is a zero-allocation contract: -update
// refuses a run that would raise it, so a violating run cannot be baked
// into a new baseline.
//
// With -update the baseline file is rewritten from the observed run
// instead of being enforced: one entry per benchmark with its owning
// package, and a regenerate note derived from the entries themselves
// (so the note can never drift from the keys). Each entry's alloc_slack
// survives the rewrite. A baseline of any schema but the current one
// fails to load.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// modulePath prefixes the pkg: lines in bench output; the regenerate
// note rewrites it to a ./ path so the commands run from the repo root.
const modulePath = "repro"

// baselineSchema is the file schema version, the only one loadBaseline
// accepts.
const baselineSchema = 3

// Entry is one benchmark's reference memory costs.
type Entry struct {
	// Pkg is the Go package that owns the benchmark (from the pkg: line
	// of the run that produced the baseline); the regenerate note is
	// derived from it.
	Pkg         string  `json:"pkg,omitempty"`
	BPerOp      float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// AllocSlack is the allocs/op growth this benchmark tolerates, for
	// counts that move with what a GC leaves in sync.Pools.
	AllocSlack float64 `json:"alloc_slack,omitempty"`
}

// Baseline is the persisted benchmark reference.
type Baseline struct {
	// Note documents how to regenerate the file; -update derives it from
	// the entries so it cannot drift.
	Note string `json:"note"`
	// Schema is the file format version; it must be baselineSchema.
	Schema int `json:"schema,omitempty"`
	// Benchmarks maps benchmark name (GOMAXPROCS -N suffix stripped) to
	// its reference entry.
	Benchmarks map[string]*Entry `json:"benchmarks,omitempty"`
}

// loadBaseline reads a baseline file and rejects any schema but
// baselineSchema.
func loadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if b.Schema != baselineSchema {
		return nil, fmt.Errorf("%s: schema %d, want %d (regenerate it with -update)", path, b.Schema, baselineSchema)
	}
	return &b, nil
}

// Result is one benchmark's observed costs from the piped output.
type Result struct {
	Pkg         string
	BPerOp      float64
	AllocsPerOp float64
	// HasMem records whether the line carried -benchmem columns.
	HasMem bool
}

// benchLine matches standard `go test -bench` result lines, with the
// optional -benchmem columns, e.g.
// "BenchmarkCounterInc-8   92441530   12.95 ns/op   0 B/op   0 allocs/op".
// The ns/op column only identifies a result line; its value is not read.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+[0-9.]+(?:e[+-]?\d+)? ns/op(?:\s+([0-9.]+(?:e[+-]?\d+)?) B/op\s+([0-9]+) allocs/op)?`)

// pkgLine matches the package header go test prints before each
// package's benchmarks.
var pkgLine = regexp.MustCompile(`^pkg: (\S+)$`)

// parseBench extracts name→Result pairs from go test -bench output,
// attributing each benchmark to the most recent pkg: header. When a
// benchmark appears more than once (e.g. -count=3), the minimum of each
// memory column is kept: what a GC leaves in a sync.Pool can add an
// allocation to one run, never take one away.
func parseBench(r io.Reader) (map[string]Result, error) {
	out := make(map[string]Result)
	sc := bufio.NewScanner(r)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if m := pkgLine.FindStringSubmatch(line); m != nil {
			pkg = m[1]
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		res := Result{Pkg: pkg}
		if m[2] != "" {
			res.HasMem = true
			var err error
			if res.BPerOp, err = strconv.ParseFloat(m[2], 64); err != nil {
				return nil, fmt.Errorf("benchguard: bad B/op in %q: %w", line, err)
			}
			if res.AllocsPerOp, err = strconv.ParseFloat(m[3], 64); err != nil {
				return nil, fmt.Errorf("benchguard: bad allocs/op in %q: %w", line, err)
			}
		}
		name := m[1]
		prev, seen := out[name]
		if !seen {
			out[name] = res
			continue
		}
		if res.HasMem {
			if !prev.HasMem || res.BPerOp < prev.BPerOp {
				prev.BPerOp = res.BPerOp
			}
			if !prev.HasMem || res.AllocsPerOp < prev.AllocsPerOp {
				prev.AllocsPerOp = res.AllocsPerOp
			}
			prev.HasMem = true
		}
		if prev.Pkg == "" {
			prev.Pkg = res.Pkg
		}
		out[name] = prev
	}
	return out, sc.Err()
}

// bTolerance is the relative B/op growth allowed, and bFloorBytes the
// absolute growth always allowed alongside it: small benchmarks jitter
// by an allocator size class, and a 64-byte creep on a multi-megabyte
// benchmark is not the signal.
const (
	bTolerance  = 0.10
	bFloorBytes = 64
)

// compare checks observed results against the baseline and returns
// human-readable problem descriptions (empty means the guard passes).
func compare(base map[string]*Entry, got map[string]Result) (problems []string) {
	for _, name := range sortedKeys(got) {
		if _, ok := base[name]; !ok {
			problems = append(problems,
				fmt.Sprintf("%s: in bench output but not in baseline; add it with -update", name))
		}
	}
	for _, name := range sortedKeys(base) {
		ref := base[name]
		res, ok := got[name]
		switch {
		case !ok:
			problems = append(problems,
				fmt.Sprintf("%s: in baseline but missing from bench output", name))
			continue
		case !res.HasMem:
			problems = append(problems,
				fmt.Sprintf("%s: output lacks -benchmem columns", name))
			continue
		}
		limit := max(ref.BPerOp*(1+bTolerance), ref.BPerOp+bFloorBytes)
		if res.BPerOp > limit {
			problems = append(problems,
				fmt.Sprintf("%s: %.0f B/op exceeds baseline %.0f B/op (limit %.0f: +%.0f%% with a %dB floor)",
					name, res.BPerOp, ref.BPerOp, limit, 100*bTolerance, bFloorBytes))
		}
		if res.AllocsPerOp > ref.AllocsPerOp+ref.AllocSlack {
			problems = append(problems,
				fmt.Sprintf("%s: %.0f allocs/op exceeds baseline %.0f allocs/op (slack %.0f)",
					name, res.AllocsPerOp, ref.AllocsPerOp, ref.AllocSlack))
		}
	}
	return problems
}

// sortedKeys returns m's keys in order, so problems print stably.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// regenerateNote derives the baseline's regenerate command from its own
// entries: one `go test -bench` invocation per package, each matching
// exactly the baselined benchmark names. Because the note is computed
// from the keys, it cannot drift from them. Entries without package
// attribution (output without pkg: lines) fall back to a generic hint.
func regenerateNote(benchmarks map[string]*Entry) string {
	byPkg := make(map[string][]string)
	unattributed := false
	for name, e := range benchmarks {
		if e.Pkg == "" {
			unattributed = true
			continue
		}
		byPkg[e.Pkg] = append(byPkg[e.Pkg], strings.TrimPrefix(name, "Benchmark"))
	}
	if len(byPkg) == 0 {
		return "regenerate: pipe `go test -run '^$' -bench . -benchmem <packages>` into `go run ./cmd/benchguard -update`"
	}
	var cmds []string
	for _, pkg := range sortedKeys(byPkg) {
		names := byPkg[pkg]
		sort.Strings(names)
		dir := pkg
		if dir == modulePath {
			dir = "./"
		} else {
			dir = "./" + strings.TrimPrefix(dir, modulePath+"/") + "/"
		}
		cmds = append(cmds, fmt.Sprintf("go test -run '^$' -bench '^Benchmark(%s)$' -benchmem %s",
			strings.Join(names, "|"), dir))
	}
	note := "regenerate: { " + strings.Join(cmds, "; ") +
		"; } | go run ./cmd/benchguard -baseline BENCH_baseline.json -update"
	if unattributed {
		note += " (some entries lack pkg attribution; they are omitted from the commands above)"
	}
	return note
}

// buildBaseline assembles a baseline from observed results, carrying
// each entry's alloc_slack forward from the previous baseline. It fails
// on output without -benchmem columns and on a run that would raise a
// zero-allocation contract (a previous entry at 0 allocs/op).
func buildBaseline(got map[string]Result, prev *Baseline) (*Baseline, error) {
	b := &Baseline{Schema: baselineSchema, Benchmarks: make(map[string]*Entry, len(got))}
	for _, name := range sortedKeys(got) {
		res := got[name]
		if !res.HasMem {
			return nil, fmt.Errorf("%s: output lacks -benchmem columns", name)
		}
		e := &Entry{Pkg: res.Pkg, BPerOp: res.BPerOp, AllocsPerOp: res.AllocsPerOp}
		if prev != nil {
			if old, ok := prev.Benchmarks[name]; ok {
				if old.AllocsPerOp == 0 && res.AllocsPerOp > 0 {
					return nil, fmt.Errorf("%s: %.0f allocs/op violates its zero-allocation contract", name, res.AllocsPerOp)
				}
				e.AllocSlack = old.AllocSlack
				if e.Pkg == "" {
					e.Pkg = old.Pkg
				}
			}
		}
		b.Benchmarks[name] = e
	}
	b.Note = regenerateNote(b.Benchmarks)
	return b, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "baseline JSON file")
		update       = flag.Bool("update", false, "rewrite the baseline from this run instead of enforcing it")
	)
	flag.Parse()

	got, err := parseBench(os.Stdin)
	if err != nil {
		return err
	}
	if len(got) == 0 {
		return fmt.Errorf("no benchmark results on stdin (pipe `go test -bench -benchmem` output in)")
	}

	if *update {
		// A missing or unreadable baseline is simply replaced.
		prev, _ := loadBaseline(*baselinePath)
		b, err := buildBaseline(got, prev)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("benchguard: wrote %d benchmarks to %s\n", len(got), *baselinePath)
		return nil
	}

	base, err := loadBaseline(*baselinePath)
	if err != nil {
		return err
	}
	if problems := compare(base.Benchmarks, got); len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "benchguard: FAIL:", p)
		}
		return fmt.Errorf("%d gate failure(s)", len(problems))
	}
	fmt.Printf("benchguard: %d benchmarks within their B/op and allocs/op gates\n", len(base.Benchmarks))
	return nil
}
