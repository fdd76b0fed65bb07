package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/obs
BenchmarkCounterInc-8      	92441530	        12.95 ns/op	       0 B/op	       0 allocs/op
BenchmarkHistogramObserve-8	29812345	        40.10 ns/op
BenchmarkTracerEmit-8      	 1000000	      1050 ns/op	     128 B/op	       2 allocs/op
BenchmarkCounterInc-8      	90000000	        13.20 ns/op	       8 B/op	       1 allocs/op
PASS
ok  	repro/internal/obs	5.123s
`

func f64(v float64) *float64 { return &v }

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	// Min of the two CounterInc runs, per column.
	ci := got["BenchmarkCounterInc"]
	if ci.NsPerOp != 12.95 || ci.BPerOp != 0 || ci.AllocsPerOp != 0 || !ci.HasMem {
		t.Errorf("CounterInc = %+v, want min ns 12.95, 0 B/op, 0 allocs/op", ci)
	}
	if ci.Pkg != "repro/internal/obs" {
		t.Errorf("CounterInc pkg = %q, want repro/internal/obs", ci.Pkg)
	}
	ho := got["BenchmarkHistogramObserve"]
	if ho.NsPerOp != 40.10 || ho.HasMem {
		t.Errorf("HistogramObserve = %+v, want 40.10 ns/op without memory columns", ho)
	}
	te := got["BenchmarkTracerEmit"]
	if te.NsPerOp != 1050 || te.BPerOp != 128 || te.AllocsPerOp != 2 {
		t.Errorf("TracerEmit = %+v, want 1050/128/2", te)
	}
}

func TestParseBenchIgnoresNoise(t *testing.T) {
	got, err := parseBench(strings.NewReader("random text\nFAIL\n--- BenchmarkNot a result\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("parsed %d benchmarks from noise: %v", len(got), got)
	}
}

var defaults = gateParams{nsTolerance: 0.25, bTolerance: 0.10}

func TestCompareWithinTolerance(t *testing.T) {
	base := map[string]*Entry{"BenchmarkX": {NsPerOp: 100}}
	p, _ := compare(base, map[string]Result{"BenchmarkX": {NsPerOp: 124}}, defaults)
	if len(p) != 0 {
		t.Errorf("24%% slowdown should pass at 25%% tolerance: %v", p)
	}
	p, _ = compare(base, map[string]Result{"BenchmarkX": {NsPerOp: 80}}, defaults)
	if len(p) != 0 {
		t.Errorf("speedup should always pass: %v", p)
	}
}

func TestCompareRegression(t *testing.T) {
	base := map[string]*Entry{"BenchmarkX": {NsPerOp: 100}, "BenchmarkY": {NsPerOp: 10}}
	p, _ := compare(base, map[string]Result{
		"BenchmarkX": {NsPerOp: 130},
		"BenchmarkY": {NsPerOp: 10},
	}, defaults)
	if len(p) != 1 || !strings.Contains(p[0], "BenchmarkX") {
		t.Fatalf("30%% slowdown should fail exactly once: %v", p)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	base := map[string]*Entry{"BenchmarkGone": {NsPerOp: 50}}
	p, _ := compare(base, map[string]Result{}, defaults)
	if len(p) != 1 || !strings.Contains(p[0], "missing") {
		t.Fatalf("baseline entry absent from output should fail: %v", p)
	}
}

func TestCompareNewBenchmarkPasses(t *testing.T) {
	p, _ := compare(map[string]*Entry{}, map[string]Result{"BenchmarkNew": {NsPerOp: 5}}, defaults)
	if len(p) != 0 {
		t.Fatalf("benchmark not in baseline should not fail the guard: %v", p)
	}
}

func TestCompareAllocRegression(t *testing.T) {
	base := map[string]*Entry{
		"BenchmarkX": {NsPerOp: 100, BPerOp: f64(0), AllocsPerOp: f64(0)},
	}
	// One new allocation fails with zero slack.
	p, _ := compare(base, map[string]Result{
		"BenchmarkX": {NsPerOp: 100, BPerOp: 16, AllocsPerOp: 1, HasMem: true},
	}, defaults)
	if len(p) != 1 || !strings.Contains(p[0], "allocs/op") {
		t.Fatalf("alloc growth with zero slack should fail once: %v", p)
	}
	// Per-entry slack absorbs it.
	base["BenchmarkX"].AllocSlack = f64(1)
	p, _ = compare(base, map[string]Result{
		"BenchmarkX": {NsPerOp: 100, BPerOp: 16, AllocsPerOp: 1, HasMem: true},
	}, defaults)
	if len(p) != 0 {
		t.Fatalf("alloc growth within per-entry slack should pass: %v", p)
	}
}

func TestCompareBytesFloorAndRelative(t *testing.T) {
	// Small baseline: the 64-byte floor dominates the 10% gate.
	base := map[string]*Entry{
		"BenchmarkSmall": {NsPerOp: 10, BPerOp: f64(8), AllocsPerOp: f64(1)},
		"BenchmarkBig":   {NsPerOp: 10, BPerOp: f64(1 << 20), AllocsPerOp: f64(1)},
	}
	p, _ := compare(base, map[string]Result{
		"BenchmarkSmall": {NsPerOp: 10, BPerOp: 64, AllocsPerOp: 1, HasMem: true},
		"BenchmarkBig":   {NsPerOp: 10, BPerOp: 1 << 20, AllocsPerOp: 1, HasMem: true},
	}, defaults)
	if len(p) != 0 {
		t.Fatalf("+56B on an 8B baseline is within the floor: %v", p)
	}
	// Big benchmark growing 20% trips the relative gate even though the
	// floor alone would never catch it.
	p, _ = compare(base, map[string]Result{
		"BenchmarkSmall": {NsPerOp: 10, BPerOp: 8, AllocsPerOp: 1, HasMem: true},
		"BenchmarkBig":   {NsPerOp: 10, BPerOp: 1.2 * (1 << 20), AllocsPerOp: 1, HasMem: true},
	}, defaults)
	if len(p) != 1 || !strings.Contains(p[0], "BenchmarkBig") || !strings.Contains(p[0], "B/op") {
		t.Fatalf("20%% byte growth on a big benchmark should fail the B/op gate: %v", p)
	}
}

func TestCompareSkipsMemGatesWithoutBenchmem(t *testing.T) {
	base := map[string]*Entry{
		"BenchmarkX": {NsPerOp: 100, BPerOp: f64(0), AllocsPerOp: f64(0)},
	}
	p, n := compare(base, map[string]Result{
		"BenchmarkX": {NsPerOp: 100}, // no -benchmem columns
	}, defaults)
	if len(p) != 0 {
		t.Fatalf("missing -benchmem columns must not fail the guard: %v", p)
	}
	if len(n) != 1 || !strings.Contains(n[0], "-benchmem") {
		t.Fatalf("skipping memory gates should produce one notice: %v", n)
	}
}

func TestRequireZero(t *testing.T) {
	got := map[string]Result{
		"BenchmarkClean": {NsPerOp: 100, BPerOp: 0, AllocsPerOp: 0, HasMem: true},
		"BenchmarkDirty": {NsPerOp: 100, BPerOp: 48, AllocsPerOp: 3, HasMem: true},
		"BenchmarkNoMem": {NsPerOp: 100},
	}
	if p := requireZero(nil, got); len(p) != 0 {
		t.Fatalf("no -require-zero flags should check nothing: %v", p)
	}
	if p := requireZero([]string{"BenchmarkClean"}, got); len(p) != 0 {
		t.Fatalf("0 allocs/op should satisfy the contract: %v", p)
	}
	p := requireZero([]string{"BenchmarkClean", "BenchmarkDirty", "BenchmarkNoMem", "BenchmarkAbsent"}, got)
	if len(p) != 3 {
		t.Fatalf("want 3 violations (allocs, no -benchmem, missing), got: %v", p)
	}
	for i, want := range []string{"BenchmarkDirty", "BenchmarkNoMem", "BenchmarkAbsent"} {
		if !strings.Contains(p[i], want) {
			t.Errorf("problem %d = %q, want it to name %s", i, p[i], want)
		}
	}
	// Even a zero-alloc benchmark fails if the run omitted -benchmem:
	// the contract must be verified, not assumed.
	if p := requireZero([]string{"BenchmarkNoMem"}, got); len(p) != 1 || !strings.Contains(p[0], "-benchmem") {
		t.Fatalf("missing -benchmem columns must fail -require-zero: %v", p)
	}
}

func TestLoadBaselineRejectsOtherSchema(t *testing.T) {
	dir := t.TempDir()
	for schema, raw := range map[int]string{
		0: `{"note":"old","ns_per_op":{"BenchmarkA":12.5}}`,
		3: `{"note":"new","schema":3,"benchmarks":{"BenchmarkA":{"ns_per_op":12.5}}}`,
	} {
		path := filepath.Join(dir, fmt.Sprintf("schema%d.json", schema))
		if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := loadBaseline(path)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("schema %d", schema)) {
			t.Errorf("schema %d: err = %v, want one naming the schema", schema, err)
		}
	}
	// The checked-in baseline is the current schema.
	b, err := loadBaseline("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Benchmarks) == 0 {
		t.Error("BENCH_baseline.json loaded with no entries")
	}
}

func TestRegenerateNoteFromEntries(t *testing.T) {
	b := buildBaseline(map[string]Result{
		"BenchmarkCounterInc": {Pkg: "repro/internal/obs", NsPerOp: 12, BPerOp: 0, AllocsPerOp: 0, HasMem: true},
		"BenchmarkTracerEmit": {Pkg: "repro/internal/obs", NsPerOp: 200, BPerOp: 0, AllocsPerOp: 0, HasMem: true},
		"BenchmarkScan":       {Pkg: "repro/internal/crawler", NsPerOp: 35e4, BPerOp: 100, AllocsPerOp: 3, HasMem: true},
	}, nil)
	if b.Schema != baselineSchema {
		t.Fatalf("schema = %d, want %d", b.Schema, baselineSchema)
	}
	note := b.Note
	for _, want := range []string{
		"./internal/obs/",
		"./internal/crawler/",
		"-benchmem",
		"'^Benchmark(CounterInc|TracerEmit)$'",
		"'^Benchmark(Scan)$'",
		"-update",
	} {
		if !strings.Contains(note, want) {
			t.Errorf("note %q missing %q", note, want)
		}
	}
}

func TestBuildBaselineCarriesOverrides(t *testing.T) {
	prev := &Baseline{Benchmarks: map[string]*Entry{
		"BenchmarkX": {Pkg: "repro/internal/obs", NsPerOp: 100, AllocSlack: f64(2), NsTolerance: f64(0.5)},
	}}
	b := buildBaseline(map[string]Result{
		"BenchmarkX": {Pkg: "repro/internal/obs", NsPerOp: 90, BPerOp: 8, AllocsPerOp: 1, HasMem: true},
	}, prev)
	e := b.Benchmarks["BenchmarkX"]
	if e.AllocSlack == nil || *e.AllocSlack != 2 || e.NsTolerance == nil || *e.NsTolerance != 0.5 {
		t.Fatalf("per-entry overrides lost across -update: %+v", e)
	}
	if e.NsPerOp != 90 || e.BPerOp == nil || *e.BPerOp != 8 {
		t.Fatalf("observed costs not taken: %+v", e)
	}
}
