package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/reprod"
)

// cachedRun is one spec the service has executed: how to ask for it
// again and what its first (miss) response was.
type cachedRun struct {
	spec []byte // JSON body of POST /run
	key  string // X-Reprod-Key
	body string // SHA-256 of the miss body
	csvs []string
}

// client is one closed-loop HTTP client on its own connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second},
		base: base,
	}
}

// do sends one request and reads the whole response.
func (c *client) do(method, path string, body []byte) (status int, hdr http.Header, data []byte, err error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// post submits a spec to POST /run, the service's only run route, and
// reports the X-Reprod-Cache source ("miss", "join" or "hit"); any
// failure, a 429 included, comes back as an error.
func (c *client) post(spec []byte) (source, key string, body []byte, err error) {
	status, hdr, body, err := c.do(http.MethodPost, "/run", spec)
	if err != nil {
		return "", "", nil, err
	}
	if status != http.StatusOK {
		return "", "", nil, fmt.Errorf("POST /run: status %d: %.120s", status, body)
	}
	return hdr.Get("X-Reprod-Cache"), hdr.Get("X-Reprod-Key"), body, nil
}

// serviceMix drives an in-process reprod server over real HTTP on
// loopback in three closed-loop phases: distinct cold runs (one
// client), pairs of simultaneous identical specs (two clients), and a
// warm read loop (two clients) for the rest of the time budget.
func serviceMix(r *run) error {
	cold, rounds, minWarm := 128, 16, 3.0
	if r.cfg.smoke {
		cold, rounds, minWarm = 4, 2, 0.5
	}

	// Set-up: cache directory, server, listener, two clients.
	if err := os.MkdirAll(r.cfg.tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(r.cfg.tmp, "cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := reprod.New(reprod.Config{CacheDir: dir, MaxQueue: 64})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx) // teardown: the run's results are already recorded
	}()
	clients := []*client{newClient(ts.URL), newClient(ts.URL)}
	if only, err := r.ready(); only || err != nil {
		return err
	}

	reg := srv.Registry()
	executed := reg.Counter("reprod.runs.executed")
	// Spec seeds must be positive and distinct across phases and runs.
	base := r.cfg.seed % 1_000_000
	if base < 0 {
		base = -base
	}
	base = base*1000 + 1
	specJSON := func(id string, seed int64) []byte {
		data, _ := json.Marshal(reprod.Spec{ID: id, Seed: seed, Quick: true, Workers: 1})
		return data
	}
	var runs []cachedRun

	// Phase 1: distinct cold runs of a 25 ms experiment, so Cache.Put
	// (fsync, rename) and render/marshal are not diluted by the run.
	var allocBytes, allocObjects []float64
	for i := 0; i < cold; i++ {
		spec := specJSON("fig13", base+int64(i))
		win := openAllocWindow()
		id := r.spans.start("http.cold", -1, i)
		source, key, body, err := clients[0].post(spec)
		r.spans.end(id)
		b, n := win.close()
		r.op(err == nil && source == "miss", "cold run %d: source %q: %v", i, source, err)
		if err != nil {
			continue
		}
		allocBytes, allocObjects = append(allocBytes, b), append(allocObjects, n)
		r.digest.Write(body)
		runs = append(runs, cachedRun{spec: spec, key: key, body: sha(body)})
	}

	// Phase 2: two simultaneous identical specs per round must cost one
	// execution between them.
	for i := 0; i < rounds; i++ {
		spec := specJSON("chaos", base+500+int64(i))
		before := executed.Value()
		var wg sync.WaitGroup
		var sources [2]string
		var bodies [2][]byte
		var keys [2]string
		var errs [2]error
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				id := r.spans.start("http.join", -1, i)
				sources[c], keys[c], bodies[c], errs[c] = clients[c].post(spec)
				r.spans.end(id)
			}(c)
		}
		wg.Wait()
		ok := errs[0] == nil && errs[1] == nil
		for _, s := range sources {
			ok = ok && (s == "miss" || s == "join")
		}
		r.op(ok, "round %d: sources %v, errors %v", i, sources, errs)
		r.op(executed.Value()-before == 1, "round %d: %d executions for one key", i, executed.Value()-before)
		r.op(bytes.Equal(bodies[0], bodies[1]), "round %d: the two responses differ", i)
		if ok {
			r.digest.Write(bodies[0])
			runs = append(runs, cachedRun{spec: spec, key: keys[0], body: sha(bodies[0])})
		}
	}
	if len(runs) == 0 {
		return fmt.Errorf("no run succeeded: %v", r.res.Problems)
	}

	// The warm loop fetches CSVs by name; read each key's names from its
	// manifest once, untimed.
	for i := range runs {
		status, _, data, err := clients[0].do(http.MethodGet, "/runs/"+runs[i].key, nil)
		var manifest struct {
			CSVs []string `json:"csvs"`
		}
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(data, &manifest)
		}
		if err != nil || len(manifest.CSVs) == 0 {
			return fmt.Errorf("manifest of %s: status %d: %v", runs[i].key, status, err)
		}
		runs[i].csvs = manifest.CSVs
	}

	// Phase 3: warm loop for what is left of the budget: 80 % cached
	// POST /run, 20 % GETs of manifest, report, HTML and CSV, over all
	// keys. Cache.Get is a ReadFile plus a JSON decode of a small
	// (fig13) or a large (chaos) bundle.
	warm := r.cfg.seconds - time.Since(r.start).Seconds()
	if warm < minWarm || r.cfg.smoke {
		warm = minWarm
	}
	deadline := time.Now().Add(time.Duration(warm * float64(time.Second)))
	warmStart := time.Now()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.cfg.seed*7919 + int64(c)))
			for time.Now().Before(deadline) {
				run := &runs[rng.Intn(len(runs))]
				var problem string
				if rng.Float64() < 0.8 {
					id := r.spans.start("http.hit", -1, c)
					source, _, body, err := clients[c].post(run.spec)
					r.spans.end(id)
					switch {
					case err != nil:
						problem = err.Error()
					case source != "hit":
						problem = "warm POST answered from " + source
					case sha(body) != run.body:
						problem = "hit body differs from the miss body of " + run.key
					}
				} else {
					path := "/runs/" + run.key
					switch rng.Intn(4) {
					case 1:
						path += "/report"
					case 2:
						path += "/report.html"
					case 3:
						path += "/csv/" + run.csvs[rng.Intn(len(run.csvs))]
					}
					id := r.spans.start("http.get", -1, c)
					status, _, _, err := clients[c].do(http.MethodGet, path, nil)
					r.spans.end(id)
					if err != nil || status != http.StatusOK {
						problem = fmt.Sprintf("GET %s: status %d: %v", path, status, err)
					}
				}
				r.op(problem == "", "%s", problem)
			}
		}(c)
	}
	wg.Wait()
	warmWall := time.Since(warmStart).Seconds()
	r.stopProfile()

	shed := reg.Counter("reprod.shed.total").Value()
	r.op(shed == 0, "server shed %d requests", shed)

	m := r.res.Metrics
	colds := r.spans.seconds("http.cold")
	m.set("rep_wall_s.p50", median(colds), "s", len(colds))
	m.set("alloc_mib_per_rep", median(allocBytes)/(1<<20), "MiB", len(allocBytes))
	m.set("allocs_per_rep", median(allocObjects), "count", len(allocObjects))
	hits := r.spans.seconds("http.hit")
	requests := len(hits) + len(r.spans.seconds("http.get"))
	m.set("op_ms.p50", 1e3*median(hits), "ms", len(hits))
	m.set("ops_per_s", float64(requests)/warmWall, "1/s", requests)
	// The same numbers under the names the three phases are known by.
	m.set("cold_run_ms.p50", 1e3*median(colds), "ms", len(colds))
	m.set("hit_ms.p50", 1e3*median(hits), "ms", len(hits))
	m.set("hit_ms.p95", 1e3*quantile(hits, 0.95), "ms", len(hits))
	m.set("warm_rps", float64(requests)/warmWall, "req/s", requests)

	l := r.res.Layer
	l.set("reprod.runs_executed", float64(executed.Value()), "count", 0)
	l.set("reprod.cache_hits", float64(reg.Counter("reprod.cache.hits").Value()), "count", 0)
	l.set("reprod.cache_misses", float64(reg.Counter("reprod.cache.misses").Value()), "count", 0)
	l.set("reprod.singleflight_joined", float64(reg.Counter("reprod.singleflight.joined").Value()), "count", 0)
	l.set("reprod.shed", float64(shed), "count", 0)
	if r.cfg.trace {
		l.set("reprod.hit_ms.p95", 1e3*quantile(hits, 0.95), "ms", len(hits))
		l.set("reprod.hit_ms.p99", 1e3*quantile(hits, 0.99), "ms", len(hits))
	}
	r.res.Notes = append(r.res.Notes,
		"closed loop over HTTP on the host loopback: 1 client in phase 1, 2 clients on 2 connections in phases 2 and 3")
	return nil
}
