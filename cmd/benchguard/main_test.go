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
	if ci.BPerOp != 0 || ci.AllocsPerOp != 0 || !ci.HasMem {
		t.Errorf("CounterInc = %+v, want min 0 B/op, 0 allocs/op", ci)
	}
	if ci.Pkg != "repro/internal/obs" {
		t.Errorf("CounterInc pkg = %q, want repro/internal/obs", ci.Pkg)
	}
	if ho := got["BenchmarkHistogramObserve"]; ho.HasMem {
		t.Errorf("HistogramObserve = %+v, want no memory columns", ho)
	}
	if te := got["BenchmarkTracerEmit"]; te.BPerOp != 128 || te.AllocsPerOp != 2 {
		t.Errorf("TracerEmit = %+v, want 128/2", te)
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

func TestCompareMissingBenchmark(t *testing.T) {
	base := map[string]*Entry{"BenchmarkGone": {}}
	p := compare(base, map[string]Result{})
	if len(p) != 1 || !strings.Contains(p[0], "missing") {
		t.Fatalf("baseline entry absent from output should fail: %v", p)
	}
}

func TestCompareNewBenchmarkFails(t *testing.T) {
	p := compare(map[string]*Entry{}, map[string]Result{"BenchmarkNew": {HasMem: true}})
	if len(p) != 1 || !strings.Contains(p[0], "BenchmarkNew") || !strings.Contains(p[0], "not in baseline") {
		t.Fatalf("benchmark without a baseline entry should fail once: %v", p)
	}
}

func TestCompareWithoutBenchmemFails(t *testing.T) {
	base := map[string]*Entry{"BenchmarkX": {}}
	p := compare(base, map[string]Result{"BenchmarkX": {}})
	if len(p) != 1 || !strings.Contains(p[0], "-benchmem") {
		t.Fatalf("output without -benchmem columns should fail once: %v", p)
	}
}

func TestCompareAllocRegression(t *testing.T) {
	base := map[string]*Entry{"BenchmarkX": {}}
	// One new allocation fails with zero slack.
	p := compare(base, map[string]Result{
		"BenchmarkX": {BPerOp: 16, AllocsPerOp: 1, HasMem: true},
	})
	if len(p) != 1 || !strings.Contains(p[0], "allocs/op") {
		t.Fatalf("alloc growth with zero slack should fail once: %v", p)
	}
	// Per-entry slack absorbs it.
	base["BenchmarkX"].AllocSlack = 1
	p = compare(base, map[string]Result{
		"BenchmarkX": {BPerOp: 16, AllocsPerOp: 1, HasMem: true},
	})
	if len(p) != 0 {
		t.Fatalf("alloc growth within per-entry slack should pass: %v", p)
	}
}

func TestCompareBytesFloorAndRelative(t *testing.T) {
	// Small baseline: the 64-byte floor dominates the 10% gate.
	base := map[string]*Entry{
		"BenchmarkSmall": {BPerOp: 8, AllocsPerOp: 1},
		"BenchmarkBig":   {BPerOp: 1 << 20, AllocsPerOp: 1},
	}
	p := compare(base, map[string]Result{
		"BenchmarkSmall": {BPerOp: 64, AllocsPerOp: 1, HasMem: true},
		"BenchmarkBig":   {BPerOp: 1 << 20, AllocsPerOp: 1, HasMem: true},
	})
	if len(p) != 0 {
		t.Fatalf("+56B on an 8B baseline is within the floor: %v", p)
	}
	// Big benchmark growing 20% trips the relative gate even though the
	// floor alone would never catch it.
	p = compare(base, map[string]Result{
		"BenchmarkSmall": {BPerOp: 8, AllocsPerOp: 1, HasMem: true},
		"BenchmarkBig":   {BPerOp: 1.2 * (1 << 20), AllocsPerOp: 1, HasMem: true},
	})
	if len(p) != 1 || !strings.Contains(p[0], "BenchmarkBig") || !strings.Contains(p[0], "B/op") {
		t.Fatalf("20%% byte growth on a big benchmark should fail the B/op gate: %v", p)
	}
}

func TestBuildBaselineRefusesToRaiseZero(t *testing.T) {
	prev := &Baseline{Benchmarks: map[string]*Entry{
		"BenchmarkClean": {Pkg: "repro/internal/node"},
		"BenchmarkLean":  {Pkg: "repro/internal/node", BPerOp: 16, AllocsPerOp: 1},
	}}
	// Fewer allocations, or more on an entry that was not at zero, are
	// ordinary updates.
	if _, err := buildBaseline(map[string]Result{
		"BenchmarkClean": {HasMem: true},
		"BenchmarkLean":  {BPerOp: 48, AllocsPerOp: 3, HasMem: true},
	}, prev); err != nil {
		t.Fatalf("update without a contract violation failed: %v", err)
	}
	_, err := buildBaseline(map[string]Result{
		"BenchmarkClean": {BPerOp: 8, AllocsPerOp: 1, HasMem: true},
		"BenchmarkLean":  {BPerOp: 16, AllocsPerOp: 1, HasMem: true},
	}, prev)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkClean") || !strings.Contains(err.Error(), "zero-allocation") {
		t.Fatalf("raising a 0 allocs/op entry must fail -update: %v", err)
	}
}

func TestBuildBaselineRequiresBenchmem(t *testing.T) {
	_, err := buildBaseline(map[string]Result{"BenchmarkX": {Pkg: "repro/internal/obs"}}, nil)
	if err == nil || !strings.Contains(err.Error(), "-benchmem") {
		t.Fatalf("-update from output without -benchmem columns must fail: %v", err)
	}
}

func TestLoadBaselineRejectsOtherSchema(t *testing.T) {
	dir := t.TempDir()
	for schema, raw := range map[int]string{
		0: `{"note":"old","ns_per_op":{"BenchmarkA":12.5}}`,
		2: `{"note":"v2","schema":2,"benchmarks":{"BenchmarkA":{"ns_per_op":12.5,"b_per_op":0,"allocs_per_op":0}}}`,
		4: `{"note":"new","schema":4,"benchmarks":{"BenchmarkA":{"b_per_op":0,"allocs_per_op":0}}}`,
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
	if b.Schema != 3 || len(b.Benchmarks) == 0 {
		t.Errorf("BENCH_baseline.json: schema %d with %d entries, want schema 3 with entries", b.Schema, len(b.Benchmarks))
	}
	if want := regenerateNote(b.Benchmarks); b.Note != want {
		t.Errorf("BENCH_baseline.json note drifted from its entries:\n got %s\nwant %s", b.Note, want)
	}
}

func TestRegenerateNoteFromEntries(t *testing.T) {
	b, err := buildBaseline(map[string]Result{
		"BenchmarkCounterInc": {Pkg: "repro/internal/obs", HasMem: true},
		"BenchmarkTracerEmit": {Pkg: "repro/internal/obs", HasMem: true},
		"BenchmarkScan":       {Pkg: "repro/internal/crawler", BPerOp: 100, AllocsPerOp: 3, HasMem: true},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
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
		"BenchmarkX": {Pkg: "repro/internal/obs", BPerOp: 8, AllocsPerOp: 2, AllocSlack: 2},
	}}
	b, err := buildBaseline(map[string]Result{
		"BenchmarkX": {Pkg: "repro/internal/obs", BPerOp: 8, AllocsPerOp: 1, HasMem: true},
	}, prev)
	if err != nil {
		t.Fatal(err)
	}
	e := b.Benchmarks["BenchmarkX"]
	if e.AllocSlack != 2 {
		t.Fatalf("alloc_slack lost across -update: %+v", e)
	}
	if e.BPerOp != 8 || e.AllocsPerOp != 1 {
		t.Fatalf("observed costs not taken: %+v", e)
	}
}
