package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as its own benchmark child: the
// parent side of a test spawns os.Executable() with asMainEnv set, and
// such a process runs the benchmark's main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json to the names, units,
// directions and bounds the program reports, and to the limits of the
// benchmark contract.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", b.RunSeconds)
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := b.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}

	compare := func(kind string, got []jsonMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, code has %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25)) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in code", kind, w.name, g.Bound, w.bound)
			}
			if !nameRE.MatchString(w.name) || !unitRE.MatchString(w.unit) || seen[w.name] {
				t.Errorf("%s %s: bad or repeated name, or bad unit %q", kind, w.name, w.unit)
			}
			if w.better != "lower" && w.better != "higher" {
				t.Errorf("%s %s: better = %q", kind, w.name, w.better)
			}
			seen[w.name] = true
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
}

// checkOutcome asserts what every workload's report must satisfy.
func checkOutcome(t *testing.T, name string, out *outcome, specs []metricSpec, set metrics) {
	t.Helper()
	if !out.Correct || out.FailShare != 0 || out.Attempted < 1 {
		t.Errorf("%s: correct=%v fail_share=%v attempted=%d problems=%v",
			name, out.Correct, out.FailShare, out.Attempted, out.Problems)
	}
	if len(out.Digest) != 64 {
		t.Errorf("%s: output_digest %q is not a SHA-256", name, out.Digest)
	}
	for n, m := range set {
		if !nameRE.MatchString(n) || !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: metric %q has a bad name or unit %q", name, n, m.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %q = %v", name, n, m.Value)
		}
	}
	line, err := contractLine(out, specs, set)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  *string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(string(line)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decoded); err != nil {
		t.Fatalf("%s: result line: %v", name, err)
	}
	if decoded.Correct == nil || decoded.Attempted == nil || decoded.Failed == nil || len(decoded.Metrics) != len(specs) {
		t.Errorf("%s: result line %s lacks a key or a metric", name, line)
	}
	for _, s := range specs {
		if m, ok := decoded.Metrics[s.name]; !ok || m.Value == nil || m.Unit == nil || *m.Unit != s.unit {
			t.Errorf("%s: result line lacks %s in %s", name, s.name, s.unit)
		}
	}
}

func smokeConfig(t *testing.T, trace bool) config {
	return config{seed: 7, seconds: 1, trace: trace, smoke: true, tmp: t.TempDir()}
}

// TestSmokeEndToEnd runs all five workloads untraced at the smallest
// sizes: set-up children, the fresh-process re-run check, every
// end-to-end metric positive.
func TestSmokeEndToEnd(t *testing.T) {
	t.Parallel()
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	doc, err := runAll(smokeConfig(t, false), names)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		out := doc.Workloads[name]
		if out == nil {
			t.Fatalf("%s: no outcome", name)
		}
		checkOutcome(t, name, out, endToEnd, out.Metrics)
		for _, s := range endToEnd {
			if out.Metrics[s.name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, s.name, out.Metrics[s.name].Value)
			}
		}
	}
	// The names the issue gave the phase- and part-specific metrics.
	for _, alias := range []string{"cold_run_ms.p50", "hit_ms.p50", "hit_ms.p95", "warm_rps"} {
		if doc.Workloads["service_mix"].Metrics[alias].Value <= 0 {
			t.Errorf("service_mix: %s missing", alias)
		}
	}
	for _, alias := range []string{"addrs_per_s", "session_ms.p50"} {
		if doc.Workloads["tcp_crawl"].Metrics[alias].Value <= 0 {
			t.Errorf("tcp_crawl: %s missing", alias)
		}
	}
}

// TestSmokeTraced runs all five workloads in traced mode: CPU shares
// that sum to 1, every per-layer metric present, probes included.
func TestSmokeTraced(t *testing.T) {
	t.Parallel()
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	doc, err := runAll(smokeConfig(t, true), names)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		out := doc.Workloads[name]
		if out == nil {
			t.Fatalf("%s: no outcome", name)
		}
		checkOutcome(t, name, out, perLayer, out.PerLayer)
		if len(out.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", name, len(out.PerLayer), len(perLayer))
		}
		var shares float64
		for n, m := range out.PerLayer {
			if strings.HasSuffix(n, ".cpu_share") {
				shares += m.Value
			}
		}
		if math.Abs(shares-1) > 0.01 {
			t.Errorf("%s: cpu shares sum to %v, want 1", name, shares)
		}
		for _, p := range probes {
			if out.PerLayer[p.name].Value <= 0 && p.name != "reprod.cold_overhead_ms" {
				t.Errorf("%s: probe %s = %v, want > 0", name, p.name, out.PerLayer[p.name].Value)
			}
		}
	}
	if doc.Workloads["relay_steady"].PerLayer["simnet.events"].Value <= 0 {
		t.Error("relay_steady: simnet.events not reported")
	}
	if doc.Workloads["service_mix"].PerLayer["reprod.cache_hits"].Value <= 0 {
		t.Error("service_mix: reprod.cache_hits not reported")
	}
	if doc.Workloads["tcp_crawl"].PerLayer["tcpnet.getaddr_page_us"].Value <= 0 {
		t.Error("tcp_crawl: tcpnet.getaddr_page_us not reported")
	}
}

// TestLayerOf pins the attribution rules of the CPU-share cut.
func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack      []string
		layer, cut string
	}{
		{[]string{"runtime.mapassign_fast64", "repro/internal/node.(*Peer).markKnown", "repro/internal/simnet.(*Network).transmit.func1", "main.main"}, "node", "map"},
		{[]string{"crypto/sha256.block", "repro/internal/chainhash.DoubleSHA256", "repro/internal/wire.(*MsgTx).TxHash", "repro/internal/chain.(*Mempool).Add"}, "chainhash", "sha256"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/asmap.Load"}, "other", "malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_bg", "gc"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Read", "net/http.(*conn).serve"}, "reprod", "syscall"},
		{[]string{"net/http.(*persistConn).readLoop"}, "harness", ""},
		{[]string{"repro/bench.serviceMix.func2", "testing.tRunner"}, "harness", ""},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.layer {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.layer)
		}
		if got := leafOf(c.stack); got != c.cut {
			t.Errorf("leafOf(%v) = %q, want %q", c.stack, got, c.cut)
		}
	}
}
