// Command benchguard compares `go test -bench` output against a JSON
// baseline and fails when any benchmark regresses beyond a tolerance.
// It is the CI tripwire for the hot paths the observability layer
// instruments: a counter increment or histogram observation that gets
// slower — or starts allocating — silently taxes every simulated
// message.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./internal/obs/ | benchguard -baseline BENCH_baseline.json
//	go test -run '^$' -bench . -benchmem ./internal/obs/ | benchguard -baseline BENCH_baseline.json -update
//
// Three gates run per baselined benchmark:
//
//	ns/op      relative: fails beyond -tolerance (default 25%)
//	B/op       relative with an absolute floor: fails only beyond both
//	           -b-tolerance (default 10%) and +64 bytes, so tiny
//	           benchmarks aren't flaky and big ones can't hide bloat
//	allocs/op  absolute: fails when the count grows by more than the
//	           entry's alloc_slack (default 0 — allocs/op is
//	           deterministic, so any growth is a real new allocation)
//
// Per-entry overrides (ns_tolerance, b_tolerance, alloc_slack) in the
// baseline take precedence over the flags. Memory gates only apply to
// entries with b_per_op/allocs_per_op recorded; if the piped output
// lacks -benchmem columns those gates are skipped with a notice.
//
// A fourth, baseline-independent gate is opted into per benchmark with
// the repeatable -require-zero flag: the named benchmark must report
// exactly 0 allocs/op. Unlike the baseline gates, there is no slack and
// no way to ratchet the number up via -update — a zero-allocation
// contract (e.g. the relay pump steady state) either holds or the build
// fails. A -require-zero benchmark that is missing from the output, or
// whose run lacked -benchmem columns, also fails: the contract cannot
// be silently skipped.
//
// With -update the baseline file is rewritten from the observed run
// instead of being enforced: schema v2, one entry per benchmark with its
// owning package, and a regenerate note derived from the baseline
// entries themselves (so the note can never drift from the keys again).
// Per-entry tolerance overrides survive the rewrite. A baseline of any
// other schema fails to load.
//
// Benchmarks present in the output but not in the baseline are reported
// and pass (new benchmarks should not break CI); baseline entries
// missing from the output fail, so a deleted benchmark forces a
// deliberate baseline update.
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
const baselineSchema = 2

// Entry is one benchmark's reference costs and optional gate overrides.
type Entry struct {
	// Pkg is the Go package that owns the benchmark (from the pkg: line
	// of the run that produced the baseline); the regenerate note is
	// derived from it.
	Pkg string `json:"pkg,omitempty"`
	// NsPerOp is the reference CPU cost.
	NsPerOp float64 `json:"ns_per_op"`
	// BPerOp and AllocsPerOp are the reference memory costs, present
	// only when the baselining run used -benchmem.
	BPerOp      *float64 `json:"b_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// NsTolerance, BTolerance, and AllocSlack override the global gate
	// parameters for this benchmark only.
	NsTolerance *float64 `json:"ns_tolerance,omitempty"`
	BTolerance  *float64 `json:"b_tolerance,omitempty"`
	AllocSlack  *float64 `json:"alloc_slack,omitempty"`
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
	NsPerOp     float64
	BPerOp      float64
	AllocsPerOp float64
	// HasMem records whether the line carried -benchmem columns.
	HasMem bool
}

// benchLine matches standard `go test -bench` result lines, with the
// optional -benchmem columns, e.g.
// "BenchmarkCounterInc-8   92441530   12.95 ns/op   0 B/op   0 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+(?:e[+-]?\d+)?) ns/op(?:\s+([0-9.]+(?:e[+-]?\d+)?) B/op\s+([0-9]+) allocs/op)?`)

// pkgLine matches the package header go test prints before each
// package's benchmarks.
var pkgLine = regexp.MustCompile(`^pkg: (\S+)$`)

// parseBench extracts name→Result pairs from go test -bench output,
// attributing each benchmark to the most recent pkg: header. When a
// benchmark appears more than once (e.g. -count=3), the minimum of each
// column is kept: the fastest, leanest run is the least noisy estimate
// of the true cost.
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
		var err error
		if res.NsPerOp, err = strconv.ParseFloat(m[2], 64); err != nil {
			return nil, fmt.Errorf("benchguard: bad ns/op in %q: %w", line, err)
		}
		if m[3] != "" {
			res.HasMem = true
			if res.BPerOp, err = strconv.ParseFloat(m[3], 64); err != nil {
				return nil, fmt.Errorf("benchguard: bad B/op in %q: %w", line, err)
			}
			if res.AllocsPerOp, err = strconv.ParseFloat(m[4], 64); err != nil {
				return nil, fmt.Errorf("benchguard: bad allocs/op in %q: %w", line, err)
			}
		}
		name := m[1]
		prev, seen := out[name]
		if !seen {
			out[name] = res
			continue
		}
		if res.NsPerOp < prev.NsPerOp {
			prev.NsPerOp = res.NsPerOp
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

// gateParams are the global gate settings the flags provide; per-entry
// overrides take precedence.
type gateParams struct {
	nsTolerance float64
	bTolerance  float64
	allocSlack  float64
}

// bFloorBytes is the absolute B/op growth always allowed alongside the
// relative gate: small benchmarks jitter by an allocator size class, and
// a 64-byte creep on a multi-megabyte benchmark is not the signal.
const bFloorBytes = 64

// override returns *v when set, otherwise def.
func override(v *float64, def float64) float64 {
	if v != nil {
		return *v
	}
	return def
}

// compare checks observed results against the baseline. It returns
// human-readable problem descriptions (empty means the guard passes)
// plus non-fatal notices (e.g. memory gates skipped for lack of
// -benchmem columns).
func compare(base map[string]*Entry, got map[string]Result, p gateParams) (problems, notices []string) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ref := base[name]
		res, ok := got[name]
		if !ok {
			problems = append(problems,
				fmt.Sprintf("%s: in baseline but missing from bench output", name))
			continue
		}
		if nsTol := override(ref.NsTolerance, p.nsTolerance); ref.NsPerOp > 0 && res.NsPerOp > ref.NsPerOp*(1+nsTol) {
			problems = append(problems,
				fmt.Sprintf("%s: %.2f ns/op exceeds baseline %.2f ns/op by more than %.0f%%",
					name, res.NsPerOp, ref.NsPerOp, 100*nsTol))
		}
		if ref.BPerOp == nil && ref.AllocsPerOp == nil {
			continue
		}
		if !res.HasMem {
			notices = append(notices,
				fmt.Sprintf("%s: baseline has memory data but output lacks -benchmem columns; B/op and allocs/op gates skipped", name))
			continue
		}
		if ref.BPerOp != nil {
			bTol := override(ref.BTolerance, p.bTolerance)
			limit := *ref.BPerOp * (1 + bTol)
			if floor := *ref.BPerOp + bFloorBytes; floor > limit {
				limit = floor
			}
			if res.BPerOp > limit {
				problems = append(problems,
					fmt.Sprintf("%s: %.0f B/op exceeds baseline %.0f B/op (limit %.0f: +%.0f%% with a %dB floor)",
						name, res.BPerOp, *ref.BPerOp, limit, 100*bTol, bFloorBytes))
			}
		}
		if ref.AllocsPerOp != nil {
			slack := override(ref.AllocSlack, p.allocSlack)
			if res.AllocsPerOp > *ref.AllocsPerOp+slack {
				problems = append(problems,
					fmt.Sprintf("%s: %.0f allocs/op exceeds baseline %.0f allocs/op (slack %.0f)",
						name, res.AllocsPerOp, *ref.AllocsPerOp, slack))
			}
		}
	}
	return problems, notices
}

// requireZero enforces the -require-zero contract: every named
// benchmark must appear in the output with -benchmem columns and report
// exactly 0 allocs/op. Names are matched with the GOMAXPROCS suffix
// stripped, like baseline keys.
func requireZero(names []string, got map[string]Result) (problems []string) {
	for _, name := range names {
		res, ok := got[name]
		switch {
		case !ok:
			problems = append(problems,
				fmt.Sprintf("%s: -require-zero but missing from bench output", name))
		case !res.HasMem:
			problems = append(problems,
				fmt.Sprintf("%s: -require-zero but output lacks -benchmem columns", name))
		case res.AllocsPerOp != 0:
			problems = append(problems,
				fmt.Sprintf("%s: %.0f allocs/op violates the -require-zero contract", name, res.AllocsPerOp))
		}
	}
	return problems
}

// stringList is a repeatable string flag.
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }

func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
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
	pkgs := make([]string, 0, len(byPkg))
	for pkg := range byPkg {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	var cmds []string
	for _, pkg := range pkgs {
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

// buildBaseline assembles a v2 baseline from observed results, carrying
// per-entry tolerance overrides forward from the previous baseline.
func buildBaseline(got map[string]Result, prev *Baseline) *Baseline {
	b := &Baseline{Schema: baselineSchema, Benchmarks: make(map[string]*Entry, len(got))}
	for name, res := range got {
		e := &Entry{Pkg: res.Pkg, NsPerOp: res.NsPerOp}
		if res.HasMem {
			bpo, apo := res.BPerOp, res.AllocsPerOp
			e.BPerOp, e.AllocsPerOp = &bpo, &apo
		}
		if prev != nil {
			if old, ok := prev.Benchmarks[name]; ok {
				e.NsTolerance, e.BTolerance, e.AllocSlack = old.NsTolerance, old.BTolerance, old.AllocSlack
				if e.Pkg == "" {
					e.Pkg = old.Pkg
				}
			}
		}
		b.Benchmarks[name] = e
	}
	b.Note = regenerateNote(b.Benchmarks)
	return b
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
		tolerance    = flag.Float64("tolerance", 0.25, "allowed fractional ns/op slowdown before failing")
		bTolerance   = flag.Float64("b-tolerance", 0.10, "allowed fractional B/op growth before failing (with a 64-byte absolute floor)")
		allocSlack   = flag.Float64("alloc-slack", 0, "allowed absolute allocs/op growth before failing")
		update       = flag.Bool("update", false, "rewrite the baseline from this run instead of enforcing it")
		zeroAlloc    stringList
	)
	flag.Var(&zeroAlloc, "require-zero", "benchmark that must report 0 allocs/op regardless of baseline (repeatable)")
	flag.Parse()

	got, err := parseBench(os.Stdin)
	if err != nil {
		return err
	}
	if len(got) == 0 {
		return fmt.Errorf("no benchmark results on stdin (pipe `go test -bench` output in)")
	}

	// The zero-allocation contract is baseline-independent, so it is
	// enforced even under -update: a violating run must not be baked
	// into a new baseline.
	if zeroProblems := requireZero(zeroAlloc, got); len(zeroProblems) > 0 {
		for _, p := range zeroProblems {
			fmt.Fprintln(os.Stderr, "benchguard: FAIL:", p)
		}
		return fmt.Errorf("%d zero-allocation contract violation(s)", len(zeroProblems))
	}

	if *update {
		// A missing or unreadable baseline is simply replaced.
		prev, _ := loadBaseline(*baselinePath)
		b := buildBaseline(got, prev)
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		withMem := 0
		for _, e := range b.Benchmarks {
			if e.BPerOp != nil {
				withMem++
			}
		}
		fmt.Printf("benchguard: wrote %d benchmarks (%d with memory data) to %s\n",
			len(got), withMem, *baselinePath)
		if withMem < len(got) {
			fmt.Printf("benchguard: note: %d benchmark(s) lacked -benchmem columns and carry no B/op / allocs/op gates\n",
				len(got)-withMem)
		}
		return nil
	}

	base, err := loadBaseline(*baselinePath)
	if err != nil {
		return err
	}

	problems, notices := compare(base.Benchmarks, got, gateParams{
		nsTolerance: *tolerance,
		bTolerance:  *bTolerance,
		allocSlack:  *allocSlack,
	})
	for _, n := range notices {
		fmt.Println("benchguard:", n)
	}
	for name := range got {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Printf("benchguard: %s is new (not in baseline); add it with -update\n", name)
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "benchguard: FAIL:", p)
		}
		return fmt.Errorf("%d benchmark regression(s)", len(problems))
	}
	gated := 0
	for _, e := range base.Benchmarks {
		if e.BPerOp != nil || e.AllocsPerOp != nil {
			gated++
		}
	}
	fmt.Printf("benchguard: %d benchmarks within tolerance (%d with B/op and allocs/op gates)\n",
		len(base.Benchmarks), gated)
	return nil
}
