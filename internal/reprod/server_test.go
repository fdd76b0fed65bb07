package reprod

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// testExperiments is the synthetic registry the server tests inject via
// Config.Lookup: a deterministic experiment, a panicking one, one that
// fails with a plain error, one that blocks until released, and one
// that sleeps until its context dies.
type testExperiments struct {
	// blockGate, when non-nil, gates the "block" experiment: its Run
	// waits here (or for ctx) before completing.
	blockGate chan struct{}
	// blockStarted receives one value each time "block" begins running.
	blockStarted chan struct{}
	// blockCancelled closes when a "block" run observes ctx cancellation.
	blockCancelled chan struct{}
	once           sync.Once
}

func newTestExperiments() *testExperiments {
	return &testExperiments{
		blockGate:      make(chan struct{}),
		blockStarted:   make(chan struct{}, 16),
		blockCancelled: make(chan struct{}),
	}
}

func (te *testExperiments) lookup(id string) (core.Experiment, bool) {
	switch id {
	case "tiny":
		return core.Experiment{ID: "tiny", Title: "tiny deterministic", Run: func(_ context.Context, o core.Options) (*core.Report, error) {
			r := &core.Report{ID: "tiny", Title: "tiny deterministic"}
			r.AddMetric("seed", fmt.Sprintf("%d", o.Seed), "")
			r.AddMetric("netsize", fmt.Sprintf("%d", o.NetSize), "")
			r.Tables = append(r.Tables, core.Table{
				Name:   "points",
				Header: []string{"x", "y"},
				Rows:   [][]string{{"1", fmt.Sprintf("%d", o.Seed*2)}},
			})
			return r, nil
		}}, true
	case "angry":
		return core.Experiment{ID: "angry", Title: "always panics", Run: func(context.Context, core.Options) (*core.Report, error) {
			panic("experiment meltdown")
		}}, true
	case "broken":
		return core.Experiment{ID: "broken", Title: "always fails", Run: func(context.Context, core.Options) (*core.Report, error) {
			return nil, errors.New("bad input")
		}}, true
	case "block":
		return core.Experiment{ID: "block", Title: "blocks until released", Run: func(ctx context.Context, _ core.Options) (*core.Report, error) {
			te.blockStarted <- struct{}{}
			select {
			case <-te.blockGate:
				return &core.Report{ID: "block", Title: "blocks until released"}, nil
			case <-ctx.Done():
				te.once.Do(func() { close(te.blockCancelled) })
				return nil, ctx.Err()
			}
		}}, true
	case "sleepy":
		return core.Experiment{ID: "sleepy", Title: "sleeps past any deadline", Run: func(ctx context.Context, _ core.Options) (*core.Report, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}}, true
	}
	return core.Experiment{}, false
}

// testServer wires a Server with the synthetic registry onto an
// httptest listener.
type testServer struct {
	*Server
	exps *testExperiments
	http *httptest.Server
	reg  *obs.Registry
}

func newTestServer(t *testing.T, mutate func(*Config)) *testServer {
	t.Helper()
	exps := newTestExperiments()
	reg := obs.NewRegistry()
	cfg := Config{
		CacheDir: filepath.Join(t.TempDir(), "cache"),
		Registry: reg,
		Lookup:   exps.lookup,
		Version:  "test-v1",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return &testServer{Server: srv, exps: exps, http: hs, reg: reg}
}

// postSpec submits a spec and returns the response with its body read.
func (ts *testServer) postSpec(t *testing.T, spec string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(ts.http.URL+"/run", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// decodeRunError parses the JSON error envelope.
func decodeRunError(t *testing.T, body string) RunError {
	t.Helper()
	var env apiError
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("error body does not parse as the envelope: %v\n%s", err, body)
	}
	return env.Error
}

func TestServerRunMissThenHit(t *testing.T) {
	ts := newTestServer(t, nil)

	resp, body := ts.postSpec(t, `{"id":"tiny","seed":7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Reprod-Cache"); got != "miss" {
		t.Errorf("first request cache header = %q, want miss", got)
	}
	if !strings.Contains(body, "== tiny — tiny deterministic ==") || !strings.Contains(body, "seed") {
		t.Errorf("unexpected report body:\n%s", body)
	}
	key := resp.Header.Get("X-Reprod-Key")
	if len(key) != 64 {
		t.Errorf("X-Reprod-Key = %q, want a sha256 hex", key)
	}

	resp2, body2 := ts.postSpec(t, `{"id":"tiny","seed":7}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status = %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Reprod-Cache"); got != "hit" {
		t.Errorf("repeat cache header = %q, want hit", got)
	}
	if body2 != body {
		t.Errorf("cache hit body differs from the original:\n%q\n%q", body2, body)
	}
	if got := ts.reg.Counter("reprod.runs.executed").Value(); got != 1 {
		t.Errorf("executed = %d, want 1 (second request must be a cache hit)", got)
	}

	// Different seed → different key → separate execution.
	resp3, _ := ts.postSpec(t, `{"id":"tiny","seed":8}`)
	if resp3.Header.Get("X-Reprod-Key") == key {
		t.Error("different seed produced the same content key")
	}
}

// TestServerWorkersExcludedFromKey checks the execution-only knobs share
// one cache entry: same result-relevant fields at different worker
// counts or timeouts must not recompute.
func TestServerWorkersExcludedFromKey(t *testing.T) {
	ts := newTestServer(t, nil)
	resp1, body1 := ts.postSpec(t, `{"id":"tiny","seed":3,"workers":1}`)
	resp2, body2 := ts.postSpec(t, `{"id":"tiny","seed":3,"workers":4,"timeout_ms":60000}`)
	if resp1.Header.Get("X-Reprod-Key") != resp2.Header.Get("X-Reprod-Key") {
		t.Error("workers/timeout_ms changed the content key")
	}
	if resp2.Header.Get("X-Reprod-Cache") != "hit" {
		t.Errorf("second request = %q, want hit", resp2.Header.Get("X-Reprod-Cache"))
	}
	if body1 != body2 {
		t.Error("bodies differ across worker counts")
	}
	if got := ts.reg.Counter("reprod.runs.executed").Value(); got != 1 {
		t.Errorf("executed = %d, want 1", got)
	}
}

func TestServerBadRequests(t *testing.T) {
	ts := newTestServer(t, nil)
	for _, tc := range []struct {
		name, spec, wantIn string
	}{
		{"unknown id", `{"id":"nope"}`, "unknown experiment"},
		{"missing id", `{}`, "no experiment id"},
		{"unknown field", `{"id":"tiny","bogus":1}`, "invalid spec"},
		{"bad scale", `{"id":"tiny","scale":2}`, "out of range"},
		{"negative seed", `{"id":"tiny","seed":-1}`, "negative seed"},
		{"not json", `hello`, "invalid spec"},
	} {
		resp, body := ts.postSpec(t, tc.spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
			continue
		}
		if e := decodeRunError(t, body); !strings.Contains(e.Message, tc.wantIn) {
			t.Errorf("%s: message %q does not mention %q", tc.name, e.Message, tc.wantIn)
		}
	}
}

// TestServerConcurrentDedup fires N identical specs at a gated
// experiment: exactly one executes, the rest join its flight, and every
// client receives byte-identical bytes.
func TestServerConcurrentDedup(t *testing.T) {
	ts := newTestServer(t, nil)
	const n = 6

	type result struct {
		status int
		cache  string
		body   string
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(ts.http.URL+"/run", "application/json",
				strings.NewReader(`{"id":"block","seed":1}`))
			if err != nil {
				t.Error(err)
				results <- result{}
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			results <- result{resp.StatusCode, resp.Header.Get("X-Reprod-Cache"), string(body)}
		}()
	}

	// One run starts; the other five join it while it blocks.
	select {
	case <-ts.exps.blockStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("no run ever started")
	}
	waitFor(t, func() bool { return ts.reg.Counter("reprod.singleflight.joined").Value() == n-1 })
	close(ts.exps.blockGate)

	first := ""
	var hits, misses, joins int
	for i := 0; i < n; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("status = %d", r.status)
		}
		if first == "" {
			first = r.body
		} else if r.body != first {
			t.Error("responses are not byte-identical")
		}
		switch r.cache {
		case "hit":
			hits++
		case "miss":
			misses++
		case "join":
			joins++
		}
	}
	if misses != 1 {
		t.Errorf("misses = %d, want exactly 1 leader", misses)
	}
	if joins != n-1 {
		t.Errorf("joins = %d, want %d", joins, n-1)
	}
	if got := ts.reg.Counter("reprod.runs.executed").Value(); got != 1 {
		t.Errorf("executed = %d, want 1 for %d concurrent identical specs", got, n)
	}
	select {
	case <-ts.exps.blockStarted:
		t.Error("a second run started despite the singleflight")
	default:
	}
}

// TestServerShedsWhenSaturated fills the single slot and the zero-length
// queue, then checks the overflow spec is rejected with a structured 429
// rather than queued forever.
func TestServerShedsWhenSaturated(t *testing.T) {
	ts := newTestServer(t, func(c *Config) { c.MaxActive, c.MaxQueue = 1, 0 })

	holder := make(chan string, 1)
	go func() {
		_, body := ts.postSpec(t, `{"id":"block","seed":1}`)
		holder <- body
	}()
	select {
	case <-ts.exps.blockStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("slot-holding run never started")
	}

	resp, body := ts.postSpec(t, `{"id":"tiny","seed":1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if e := decodeRunError(t, body); e.Kind != "queue_full" {
		t.Errorf("kind = %q, want queue_full", e.Kind)
	}
	if got := ts.reg.Counter("reprod.shed.total").Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	// Free the slot; service recovers without restart.
	close(ts.exps.blockGate)
	<-holder
	if resp, _ := ts.postSpec(t, `{"id":"tiny","seed":1}`); resp.StatusCode != http.StatusOK {
		t.Errorf("post-shed request status = %d, want 200", resp.StatusCode)
	}
}

// TestServerPanicIsolation checks a panicking experiment becomes a
// structured 500 while the server keeps serving other specs.
func TestServerPanicIsolation(t *testing.T) {
	ts := newTestServer(t, nil)

	resp, body := ts.postSpec(t, `{"id":"angry"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	e := decodeRunError(t, body)
	if e.Kind != "panic" || e.Experiment != "angry" {
		t.Errorf("error = %+v, want kind panic for angry", e)
	}
	if !strings.Contains(e.Message, "experiment meltdown") || !strings.Contains(e.Message, "goroutine") {
		t.Errorf("panic message lacks value or stack:\n%s", e.Message)
	}
	if got := ts.reg.Counter("reprod.runs.panics").Value(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}

	// The panic is not cached and not sticky: the server still works.
	if resp, _ := ts.postSpec(t, `{"id":"tiny","seed":1}`); resp.StatusCode != http.StatusOK {
		t.Errorf("request after panic = %d, want 200", resp.StatusCode)
	}
	if resp, _ := ts.postSpec(t, `{"id":"angry"}`); resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("repeat angry = %d, want 500 again (failures are never cached)", resp.StatusCode)
	}
}

// TestServerPlainFailure checks an experiment that returns an ordinary
// error becomes a 500 of kind "failed" whose message is the Runner's
// "core: <id>: <cause>", and counts once on reprod.runs.failed.
func TestServerPlainFailure(t *testing.T) {
	ts := newTestServer(t, nil)
	failed := ts.reg.Counter("reprod.runs.failed")
	before := failed.Value()

	resp, body := ts.postSpec(t, `{"id":"broken"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", resp.StatusCode, body)
	}
	e := decodeRunError(t, body)
	if e.Kind != "failed" || e.Experiment != "broken" {
		t.Errorf("error = %+v, want kind failed for broken", e)
	}
	if want := "core: broken: bad input"; e.Message != want {
		t.Errorf("message = %q, want %q", e.Message, want)
	}
	if got := failed.Value() - before; got != 1 {
		t.Errorf("failed counter rose by %d, want 1", got)
	}
}

// TestServerDeadline checks a spec-level timeout turns a hung experiment
// into a 504 with kind "deadline".
func TestServerDeadline(t *testing.T) {
	ts := newTestServer(t, nil)
	resp, body := ts.postSpec(t, `{"id":"sleepy","timeout_ms":50}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", resp.StatusCode, body)
	}
	if e := decodeRunError(t, body); e.Kind != "deadline" {
		t.Errorf("kind = %q, want deadline", e.Kind)
	}
	if got := ts.reg.Counter("reprod.runs.deadline").Value(); got != 1 {
		t.Errorf("deadline counter = %d, want 1", got)
	}
}

// TestServerClientDisconnectCancelsRun checks the last client walking
// away cancels the execution instead of burning the slot to completion.
func TestServerClientDisconnectCancelsRun(t *testing.T) {
	ts := newTestServer(t, nil)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.http.URL+"/run",
		strings.NewReader(`{"id":"block","seed":9}`))
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()

	select {
	case <-ts.exps.blockStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("run never started")
	}
	cancel()
	<-errc

	select {
	case <-ts.exps.blockCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("run context never cancelled after the only client left")
	}
	// The aborted run must not have poisoned the cache.
	waitFor(t, func() bool { return ts.Cache().Len() == 0 })
}

// TestServerStreamProgress checks ?stream=1 delivers NDJSON progress
// events ending in run.result.
func TestServerStreamProgress(t *testing.T) {
	ts := newTestServer(t, nil)
	resp, err := http.Post(ts.http.URL+"/run?stream=1", "application/json",
		strings.NewReader(`{"id":"tiny","seed":5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var kinds []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Kind   string `json:"kind"`
			Detail string `json:"detail"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line is not JSON: %v\n%s", err, sc.Text())
		}
		kinds = append(kinds, ev.Kind)
		if ev.Kind == "run.result" && !strings.HasPrefix(ev.Detail, "ok key=") {
			t.Errorf("run.result detail = %q, want ok key=...", ev.Detail)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(kinds) == 0 || kinds[len(kinds)-1] != "run.result" {
		t.Fatalf("stream kinds = %v, want a trailing run.result", kinds)
	}
	joined := strings.Join(kinds, " ")
	if !strings.Contains(joined, "exp.start") || !strings.Contains(joined, "exp.done") {
		t.Errorf("stream lacks lifecycle events: %v", kinds)
	}

	// Streaming a cached spec yields a single run.result.
	resp2, err := http.Post(ts.http.URL+"/run?stream=1", "application/json",
		strings.NewReader(`{"id":"tiny","seed":5}`))
	if err != nil {
		t.Fatal(err)
	}
	cached, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(cached)), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "run.result") {
		t.Errorf("cached stream = %q, want one run.result line", string(cached))
	}
}

// TestServerArtifactEndpoints checks the manifest and artifact routes
// serve what the run produced.
func TestServerArtifactEndpoints(t *testing.T) {
	ts := newTestServer(t, nil)
	resp, body := ts.postSpec(t, `{"id":"tiny","seed":2}`)
	key := resp.Header.Get("X-Reprod-Key")

	get := func(path string) (int, string) {
		r, err := http.Get(ts.http.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r.StatusCode, string(b)
	}

	code, manifest := get("/runs/" + key)
	if code != http.StatusOK {
		t.Fatalf("manifest status = %d", code)
	}
	var m struct {
		Key  string   `json:"key"`
		CSVs []string `json:"csvs"`
	}
	if err := json.Unmarshal([]byte(manifest), &m); err != nil {
		t.Fatal(err)
	}
	if m.Key != key {
		t.Errorf("manifest key = %q, want %q", m.Key, key)
	}
	wantCSVs := []string{"tiny_points.csv", "tiny_metrics.csv"}
	if fmt.Sprint(m.CSVs) != fmt.Sprint(wantCSVs) {
		t.Errorf("manifest csvs = %v, want %v", m.CSVs, wantCSVs)
	}

	if code, rep := get("/runs/" + key + "/report"); code != http.StatusOK || rep != body {
		t.Errorf("report artifact differs from the POST body (status %d)", code)
	}
	if code, html := get("/runs/" + key + "/report.html"); code != http.StatusOK || !strings.Contains(html, "<!DOCTYPE html>") {
		t.Errorf("html artifact status %d or not a page", code)
	}
	if code, csvBody := get("/runs/" + key + "/csv/tiny_points.csv"); code != http.StatusOK || !strings.HasPrefix(csvBody, "x,y\n") {
		t.Errorf("csv artifact status %d, body %q", code, csvBody)
	}
	if code, _ := get("/runs/" + key + "/csv/nope.csv"); code != http.StatusNotFound {
		t.Errorf("missing csv status = %d, want 404", code)
	}
	if code, _ := get("/runs/" + strings.Repeat("0", 64)); code != http.StatusNotFound {
		t.Errorf("unknown key status = %d, want 404", code)
	}
}

// TestServerCrashRestartServesCachedByteIdentical simulates a kill -9:
// a new server process (same cache dir) must sweep torn temp files and
// serve the committed artifact byte-for-byte without re-executing.
func TestServerCrashRestartServesCachedByteIdentical(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	exps := newTestExperiments()

	s1, err := New(Config{CacheDir: dir, Lookup: exps.lookup, Version: "test-v1", Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	h1 := httptest.NewServer(s1.Handler())
	resp, err := http.Post(h1.URL+"/run", "application/json", strings.NewReader(`{"id":"tiny","seed":42}`))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	key := resp.Header.Get("X-Reprod-Key")
	h1.Close() // kill -9: no Drain, no FlushIndex

	// The crash interrupted an unrelated write mid-flight...
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"torn.json-99"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	// ...and corrupted a different (also unrelated) final file.
	if err := os.WriteFile(filepath.Join(dir, strings.Repeat("f", 64)+".json"), []byte(`{"key":"f`), 0o644); err != nil {
		t.Fatal(err)
	}

	reg2 := obs.NewRegistry()
	s2, err := New(Config{CacheDir: dir, Lookup: exps.lookup, Version: "test-v1", Registry: reg2})
	if err != nil {
		t.Fatal(err)
	}
	h2 := httptest.NewServer(s2.Handler())
	defer h2.Close()

	resp2, err := http.Post(h2.URL+"/run", "application/json", strings.NewReader(`{"id":"tiny","seed":42}`))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get("X-Reprod-Cache") != "hit" {
		t.Errorf("restart request = %q, want hit", resp2.Header.Get("X-Reprod-Cache"))
	}
	if resp2.Header.Get("X-Reprod-Key") != key {
		t.Errorf("restart key changed: %q vs %q", resp2.Header.Get("X-Reprod-Key"), key)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("restart body differs:\n%q\n%q", got, want)
	}
	if exec := reg2.Counter("reprod.runs.executed").Value(); exec != 0 {
		t.Errorf("restart executed = %d, want 0 (must serve from cache)", exec)
	}
	if _, err := os.Stat(filepath.Join(dir, tmpPrefix+"torn.json-99")); !os.IsNotExist(err) {
		t.Error("torn temp file survived the restart sweep")
	}
}

// TestServerDrain checks the graceful shutdown sequence: readiness
// degrades, new submissions are refused, a hung in-flight run is
// cancelled at the deadline, and the cache index lands on disk.
func TestServerDrain(t *testing.T) {
	ts := newTestServer(t, func(c *Config) { c.ForceGrace = 2 * time.Second })

	// Park a run that only its context can stop.
	done := make(chan RunError, 1)
	go func() {
		_, body := ts.postSpec(t, `{"id":"sleepy","seed":1}`)
		done <- decodeRunError(t, body)
	}()
	select {
	case <-time.After(50 * time.Millisecond):
	}
	waitFor(t, func() bool { return ts.adm.active.Value() == 1 })

	drainCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := ts.Drain(drainCtx); err != nil {
		t.Fatalf("Drain = %v, want clean forced drain", err)
	}

	select {
	case e := <-done:
		if e.Kind != "canceled" && e.Kind != "deadline" {
			t.Errorf("drained run error kind = %q, want canceled/deadline", e.Kind)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight run never resolved during drain")
	}

	// Readiness and admission are both off.
	resp, err := http.Get(ts.http.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	resp2, body := ts.postSpec(t, `{"id":"tiny","seed":1}`)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST while draining = %d, want 503", resp2.StatusCode)
	}
	if e := decodeRunError(t, body); e.Kind != "draining" {
		t.Errorf("kind = %q, want draining", e.Kind)
	}
	// Liveness stays green — the process is healthy, just not admitting.
	resp3, _ := http.Get(ts.http.URL + "/healthz")
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining = %d, want 200", resp3.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(ts.cfg.CacheDir, indexName)); err != nil {
		t.Errorf("drain did not flush the cache index: %v", err)
	}
}

// TestServerChaosDrill is the acceptance scenario: concurrent load with
// a panicking spec and a past-deadline spec mixed in. The two poisoned
// specs produce structured errors, every healthy spec produces a
// correct report, and the server answers health checks throughout.
func TestServerChaosDrill(t *testing.T) {
	ts := newTestServer(t, func(c *Config) { c.MaxActive, c.MaxQueue = 2, 16 })

	type outcome struct {
		spec   string
		status int
		kind   string
		body   string
	}
	specs := []string{
		`{"id":"tiny","seed":1}`,
		`{"id":"tiny","seed":2}`,
		`{"id":"tiny","seed":3}`,
		`{"id":"tiny","seed":4}`,
		`{"id":"angry","seed":1}`,
		`{"id":"sleepy","seed":1,"timeout_ms":50}`,
		`{"id":"tiny","seed":5}`,
		`{"id":"tiny","seed":6}`,
	}
	results := make(chan outcome, len(specs))
	for _, spec := range specs {
		spec := spec
		go func() {
			resp, err := http.Post(ts.http.URL+"/run", "application/json", strings.NewReader(spec))
			if err != nil {
				t.Error(err)
				results <- outcome{spec: spec}
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			o := outcome{spec: spec, status: resp.StatusCode, body: string(body)}
			if resp.StatusCode != http.StatusOK {
				var env apiError
				if json.Unmarshal(body, &env) == nil {
					o.kind = env.Error.Kind
				}
			}
			results <- o
		}()
	}

	// The server must stay responsive while the drill is in flight.
	resp, err := http.Get(ts.http.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz during chaos = %d", resp.StatusCode)
	}

	var okCount, panicCount, deadlineCount int
	for range specs {
		o := <-results
		switch {
		case strings.Contains(o.spec, "angry"):
			if o.status != http.StatusInternalServerError || o.kind != "panic" {
				t.Errorf("angry spec: status %d kind %q, want 500/panic", o.status, o.kind)
			} else {
				panicCount++
			}
		case strings.Contains(o.spec, "sleepy"):
			if o.status != http.StatusGatewayTimeout || o.kind != "deadline" {
				t.Errorf("sleepy spec: status %d kind %q, want 504/deadline", o.status, o.kind)
			} else {
				deadlineCount++
			}
		default:
			if o.status != http.StatusOK {
				t.Errorf("healthy spec %s: status %d body %s", o.spec, o.status, o.body)
				continue
			}
			if !strings.Contains(o.body, "== tiny — tiny deterministic ==") {
				t.Errorf("healthy spec %s: malformed report:\n%s", o.spec, o.body)
				continue
			}
			okCount++
		}
	}
	if okCount != 6 || panicCount != 1 || deadlineCount != 1 {
		t.Fatalf("ok/panic/deadline = %d/%d/%d, want 6/1/1", okCount, panicCount, deadlineCount)
	}

	// Every healthy artifact is now cache-resident and survives a replay.
	for _, seed := range []int{1, 2, 3, 4, 5, 6} {
		resp, _ := ts.postSpec(t, fmt.Sprintf(`{"id":"tiny","seed":%d}`, seed))
		if resp.Header.Get("X-Reprod-Cache") != "hit" {
			t.Errorf("seed %d not cached after the drill", seed)
		}
	}
	if got := ts.Cache().Len(); got != 6 {
		t.Errorf("cache entries = %d, want 6 (failures are never cached)", got)
	}
	// /metrics exposes the drill's ledger.
	mresp, err := http.Get(ts.http.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"reprod_runs_executed", "reprod_runs_panics 1", "reprod_runs_deadline 1", "reprod_cache_entries 6"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

func TestSpecKeyCanonicalization(t *testing.T) {
	base := Spec{ID: "fig1", Seed: 7, Scale: 0.5, NetSize: 100, Quick: true}
	k := base.Key("v1")

	same := base
	same.Workers = 32
	same.TimeoutMS = 99999
	if same.Key("v1") != k {
		t.Error("Workers/TimeoutMS changed the key; they must not affect artifacts")
	}

	for name, mutate := range map[string]func(*Spec){
		"id":      func(s *Spec) { s.ID = "fig3" },
		"seed":    func(s *Spec) { s.Seed = 8 },
		"scale":   func(s *Spec) { s.Scale = 0.25 },
		"netsize": func(s *Spec) { s.NetSize = 101 },
		"quick":   func(s *Spec) { s.Quick = false },
	} {
		m := base
		mutate(&m)
		if m.Key("v1") == k {
			t.Errorf("changing %s did not change the key", name)
		}
	}
	if base.Key("v2") == k {
		t.Error("changing the code version did not change the key")
	}
	if len(k) != 64 {
		t.Errorf("key length = %d, want 64 hex chars", len(k))
	}
}

// TestSpecKeyPolicies pins the policy field's cache-key semantics: the
// field always participates in the key when set, and a spec without it
// keeps the exact key it had before the field existed (a populated
// cache survives the upgrade).
func TestSpecKeyPolicies(t *testing.T) {
	base := Spec{ID: "fig1", Seed: 7, Scale: 0.5, NetSize: 100, Quick: true}
	// Golden legacy key: sha256 of
	// "v=v1|id=fig1|seed=7|scale=0.5|netsize=100|quick=true". If this
	// changes, every pre-policy cache entry is orphaned.
	const legacy = "dae6a2e832047fc62886f7af6b873b29c19382a7012483232afd30e13148b37e"
	if k := base.Key("v1"); k != legacy {
		t.Errorf("no-policy key drifted: %s, want %s", k, legacy)
	}

	a, b, c := base, base, base
	a.Policies = "tried-only-addr"
	b.Policies = "tried-only-addr+horizon-17d"
	c.Policies = "stock"
	keys := map[string]string{
		"":         base.Key("v1"),
		a.Policies: a.Key("v1"),
		b.Policies: b.Key("v1"),
		c.Policies: c.Key("v1"),
	}
	seen := map[string]string{}
	for policies, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("specs with policies %q and %q collide on key %s", policies, prev, k)
		}
		seen[k] = policies
	}
}

// TestSpecValidatePolicies: only canonical policy-set encodings are
// admitted — anything else would fragment the content-addressed cache.
func TestSpecValidatePolicies(t *testing.T) {
	lookup := newTestExperiments().lookup
	for _, good := range []string{"", "stock", "tried-only-addr",
		"tried-only-addr+horizon-17d+priority-relay"} {
		s := Spec{ID: "tiny", Policies: good}
		if err := s.Validate(lookup); err != nil {
			t.Errorf("canonical policies %q rejected: %v", good, err)
		}
	}
	for _, bad := range []string{"nope", "stock+tried-only-addr",
		"tried-only-addr+tried-only-addr", "horizon-017d", "HORIZON-17D"} {
		s := Spec{ID: "tiny", Policies: bad}
		if err := s.Validate(lookup); err == nil {
			t.Errorf("non-canonical policies %q accepted", bad)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	lookup := newTestExperiments().lookup
	ok := Spec{ID: "tiny", Seed: 1, Scale: 0.5, NetSize: 50, Workers: 4, TimeoutMS: 1000}
	if err := ok.Validate(lookup); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	for name, s := range map[string]Spec{
		"empty id":    {},
		"unknown id":  {ID: "nope"},
		"neg seed":    {ID: "tiny", Seed: -1},
		"scale high":  {ID: "tiny", Scale: 1.5},
		"scale neg":   {ID: "tiny", Scale: -0.1},
		"netsize big": {ID: "tiny", NetSize: 9999},
		"workers big": {ID: "tiny", Workers: 100},
		"neg timeout": {ID: "tiny", TimeoutMS: -5},
	} {
		if err := s.Validate(lookup); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
	}
}
