package reprod

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
)

// Config tunes a Server.
type Config struct {
	// CacheDir roots the content-addressed artifact cache.
	CacheDir string
	// MaxActive bounds concurrently executing runs (0 = GOMAXPROCS).
	MaxActive int
	// MaxQueue bounds admitted requests waiting for a slot; arrivals
	// beyond it are shed with 429 (0 = shed whenever all slots busy;
	// the cmd default is 64).
	MaxQueue int
	// RunTimeout is the per-run wall-clock ceiling (0 = 10 minutes). A
	// spec's timeout_ms can lower it, never raise it.
	RunTimeout time.Duration
	// ForceGrace bounds how long Drain waits for cancelled runs to
	// unwind after the drain deadline fires (0 = 5 seconds).
	ForceGrace time.Duration
	// Registry receives the reprod.* service metrics (nil = private).
	Registry *obs.Registry
	// FlightDir, when non-empty, enables the crash flight recorder:
	// runs that die by panic or deadline dump their tracer ring and
	// resource watermarks to flightrec-<key>.json under this directory.
	FlightDir string
	// Lookup resolves experiment IDs (nil = core.ByID). Tests inject
	// synthetic registries with panicking or blocking experiments.
	Lookup func(id string) (core.Experiment, bool)
	// Version keys the cache (empty = CodeVersion()).
	Version string
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MaxActive <= 0 {
		c.MaxActive = runtime.GOMAXPROCS(0)
	}
	if c.RunTimeout <= 0 {
		c.RunTimeout = 10 * time.Minute
	}
	if c.ForceGrace <= 0 {
		c.ForceGrace = 5 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Lookup == nil {
		c.Lookup = core.ByID
	}
	if c.Version == "" {
		c.Version = CodeVersion()
	}
	return c
}

// RunError is a run failure as reported to clients: structured, with a
// machine-readable kind, so a crashed or timed-out experiment is an
// HTTP response, never a crashed server.
type RunError struct {
	// Kind classifies the failure: "panic", "deadline", "canceled",
	// "failed", "queue_full", or "internal".
	Kind string `json:"kind"`
	// Experiment is the spec's experiment ID.
	Experiment string `json:"experiment,omitempty"`
	// Message is the human-readable cause (for panics: the panic value
	// and a truncated stack).
	Message string `json:"message"`
}

// Error renders the failure.
func (e *RunError) Error() string {
	return fmt.Sprintf("reprod: %s: %s: %s", e.Experiment, e.Kind, e.Message)
}

// status maps the failure kind onto an HTTP status.
func (e *RunError) status() int {
	switch e.Kind {
	case "queue_full":
		return http.StatusTooManyRequests
	case "deadline":
		return http.StatusGatewayTimeout
	case "canceled":
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// Server is the reproduce-as-a-service HTTP layer. Zero trust in the
// workload: every run is admitted through a bounded queue, deadline-
// bounded, panic-contained, and deduplicated; artifacts are served from
// the crash-safe cache. The server itself never dies with a spec.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	cache   *Cache
	adm     *Admission
	flights *flightGroup
	mux     *http.ServeMux

	runCtx   context.Context
	stopRuns context.CancelFunc

	// resources is the process-wide sampler behind the proc.* gauges on
	// /metrics and the per-run windows attached to bundle manifests;
	// flightRec receives crash dumps when Config.FlightDir is set.
	resources     *obs.ResourceSampler
	stopResources func()
	flightRec     *obs.FlightRecorder
	httpInflight  *obs.Gauge

	draining atomic.Bool
	inflight sync.WaitGroup

	executed        *obs.Counter
	panics          *obs.Counter
	deadlines       *obs.Counter
	failures        *obs.Counter
	progressDropped *obs.Counter
	runMS           *obs.Histogram
	drainGauge      *obs.Gauge
}

// isDraining reports whether Drain has started.
func (s *Server) isDraining() bool { return s.draining.Load() }

// setDraining flips the server into drain mode: readyz degrades and
// new submissions are rejected.
func (s *Server) setDraining() {
	s.draining.Store(true)
	s.drainGauge.Set(1)
}

// New builds a Server: opens (and crash-sweeps) the cache, constructs
// the admission gate, and wires the routes.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	cache, err := OpenCache(cfg.CacheDir, reg)
	if err != nil {
		return nil, err
	}
	var flightRec *obs.FlightRecorder
	if cfg.FlightDir != "" {
		flightRec, err = obs.OpenFlightRecorder(cfg.FlightDir)
		if err != nil {
			return nil, err
		}
	}
	resources := obs.NewResourceSampler(reg)
	runCtx, stopRuns := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		reg:       reg,
		cache:     cache,
		adm:       NewAdmission(cfg.MaxActive, cfg.MaxQueue, reg),
		flights:   newFlightGroup(reg),
		runCtx:    runCtx,
		stopRuns:  stopRuns,
		resources: resources,
		// The wall ticker keeps the proc.* gauges fresh for scrapes and
		// raises run-window peaks even mid-experiment; Drain stops it.
		stopResources: resources.Start(resourceSampleInterval),
		flightRec:     flightRec,
		httpInflight:  httpInflightGauge(reg),

		executed:        reg.Counter("reprod.runs.executed"),
		panics:          reg.Counter("reprod.runs.panics"),
		deadlines:       reg.Counter("reprod.runs.deadline"),
		failures:        reg.Counter("reprod.runs.failed"),
		progressDropped: reg.Counter("reprod.progress.dropped"),
		runMS:           reg.Histogram("reprod.run.ms"),
		drainGauge:      reg.Gauge("reprod.draining"),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /run", s.instrument("run", s.handleRun))
	s.mux.HandleFunc("GET /runs/{key}", s.instrument("manifest", s.handleManifest))
	s.mux.HandleFunc("GET /runs/{key}/report", s.instrument("report", s.handleArtifact("report")))
	s.mux.HandleFunc("GET /runs/{key}/report.html", s.instrument("report_html", s.handleArtifact("html")))
	s.mux.HandleFunc("GET /runs/{key}/csv/{name}", s.instrument("csv", s.handleCSV))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	s.mux.Handle("GET /metrics", s.instrument("metrics", obs.PrometheusHandler(reg).ServeHTTP))
	return s, nil
}

// resourceSampleInterval paces the server's background resource ticker.
// Run windows also sample at their own open/close, so this only bounds
// how stale the live gauges and mid-run peaks can get.
const resourceSampleInterval = 5 * time.Second

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the artifact store (tests and the drain path use it).
func (s *Server) Cache() *Cache { return s.cache }

// Registry exposes the metrics registry backing /metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// apiError is the JSON error envelope for non-run errors (bad specs,
// unknown routes); run failures reuse RunError inside the same shape.
type apiError struct {
	Error RunError `json:"error"`
}

// writeJSONError emits the envelope with the given status.
func writeJSONError(w http.ResponseWriter, status int, e RunError) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "5")
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(apiError{Error: e})
}

// handleRun is the submission endpoint: POST a Spec, get the rendered
// report back (or, with ?stream=1, a live NDJSON progress stream ending
// in a run.result event).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeJSONError(w, http.StatusServiceUnavailable,
			RunError{Kind: "draining", Message: "server is draining; retry against another replica"})
		return
	}

	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSONError(w, http.StatusBadRequest,
			RunError{Kind: "bad_request", Message: "invalid spec: " + err.Error()})
		return
	}
	if err := spec.Validate(s.cfg.Lookup); err != nil {
		writeJSONError(w, http.StatusBadRequest,
			RunError{Kind: "bad_request", Experiment: spec.ID, Message: err.Error()})
		return
	}
	key := spec.Key(s.cfg.Version)
	stream := r.URL.Query().Get("stream") == "1"

	// Cache fast path: repeat requests are a file read, no admission.
	if b, ok := s.cache.Get(key); ok {
		if stream {
			s.streamCached(w, b)
			return
		}
		s.serveBundleReport(w, b, "hit")
		return
	}

	// Dedup: one execution per key, however many clients are asking.
	c, leader := s.flights.get(key, func() *call {
		timeout := s.cfg.RunTimeout
		if spec.TimeoutMS > 0 {
			if d := time.Duration(spec.TimeoutMS) * time.Millisecond; d < timeout {
				timeout = d
			}
		}
		ctx, cancel := context.WithTimeout(s.runCtx, timeout)
		hub := newProgressHub(s.progressDropped)
		tracer := obs.NewTracer(2048, nil)
		tracer.AddStream(hub.publish)
		return &call{
			done:     make(chan struct{}),
			ctx:      ctx,
			cancel:   cancel,
			progress: hub,
			tracer:   tracer,
		}
	})
	leave := c.join()
	defer leave()

	if leader {
		s.inflight.Add(1)
		go s.execute(c, spec, key)
	}

	if stream {
		s.streamProgress(w, r, c, key)
		return
	}

	source := "join"
	if leader {
		source = "miss"
	}
	select {
	case <-c.done:
	case <-r.Context().Done():
		// Client gone; leave() may cancel the run if it was the last.
		return
	}
	if c.err != nil {
		s.writeRunError(w, c.err)
		return
	}
	s.serveBundleReport(w, c.bundle, source)
}

// execute is the leader goroutine for one call: admission, deadline,
// panic containment, artifact build, cache commit, result publication.
func (s *Server) execute(c *call, spec Spec, key string) {
	defer s.inflight.Done()
	defer c.cancel()

	finish := func(b *Bundle, err error) {
		// Forget before finish: once the result is out, later arrivals
		// must go through the cache (success) or retry fresh (failure)
		// rather than joining a dead call.
		s.flights.forget(key)
		status := "ok key=" + key
		if err != nil {
			status = "error: " + summarizeError(err)
		}
		c.tracer.Emit(obs.Event{Kind: "run.result", Detail: status})
		c.finish(b, err)
	}

	release, err := s.adm.Acquire(c.ctx)
	if err != nil {
		finish(nil, s.classify(spec, err))
		return
	}
	defer release()

	// A predecessor may have committed this key between our cache miss
	// and our slot grant; serving it beats recomputing it.
	if b, ok := s.cache.Get(key); ok {
		finish(b, nil)
		return
	}

	exp, ok := s.cfg.Lookup(spec.ID)
	if !ok { // validated earlier; defensive
		finish(nil, &RunError{Kind: "failed", Experiment: spec.ID, Message: "experiment vanished"})
		return
	}

	s.executed.Inc()
	begin := time.Now()
	var out bytes.Buffer
	var reports []*core.Report
	runner := core.Runner{
		Workers: spec.Workers,
		Options: spec.Options(),
		Trace:   c.tracer,
		Collect: func(r *core.Report) { reports = append(reports, r) },
		// The runner opens a nested window per experiment and dumps the
		// flight record itself on panic/deadline, keyed by our cache key
		// so the crash artifact shares the run's address.
		Resources:      s.resources,
		FlightRecorder: s.flightRec,
		FlightKey:      key,
	}
	endRes := s.resources.StartRun()
	runErr := runner.Run(c.ctx, []core.Experiment{exp}, &out)
	res := endRes()
	s.runMS.Observe(time.Since(begin).Milliseconds())
	if runErr != nil {
		finish(nil, s.classify(spec, runErr))
		return
	}
	for _, rep := range reports {
		res.EventsProcessed += core.EventsProcessed(rep)
	}

	bundle, err := s.buildBundle(spec, key, out.Bytes(), reports, &res)
	if err != nil {
		s.failures.Inc()
		finish(nil, &RunError{Kind: "internal", Experiment: spec.ID, Message: err.Error()})
		return
	}
	if err := s.cache.Put(bundle); err != nil {
		// The run succeeded; serve the result even if persisting failed.
		finish(bundle, nil)
		return
	}
	finish(bundle, nil)
}

// buildBundle renders the full artifact set from the finished reports.
// res, when non-nil, becomes the bundle's Resources provenance and the
// HTML page's Resources section.
func (s *Server) buildBundle(spec Spec, key string, report []byte, reports []*core.Report, res *obs.ResourceStats) (*Bundle, error) {
	var html bytes.Buffer
	if err := core.RenderHTMLReportWithResources(&html, reports, res); err != nil {
		return nil, fmt.Errorf("render html: %w", err)
	}
	var csvs []core.CSVFile
	for _, rep := range reports {
		files, err := rep.CSVFiles()
		if err != nil {
			return nil, fmt.Errorf("render csv: %w", err)
		}
		csvs = append(csvs, files...)
	}
	return &Bundle{
		Key:       key,
		Version:   s.cfg.Version,
		Spec:      spec,
		Report:    string(report),
		HTML:      html.String(),
		CSV:       csvs,
		Resources: res,
	}, nil
}

// classify converts an execution error into the structured RunError the
// client sees, bumping the matching failure counter.
func (s *Server) classify(spec Spec, err error) *RunError {
	var re *RunError
	if errors.As(err, &re) {
		return re
	}
	var pe *par.PanicError
	switch {
	case errors.Is(err, ErrShed):
		return &RunError{Kind: "queue_full", Experiment: spec.ID,
			Message: "admission queue full; retry later"}
	case errors.As(err, &pe):
		s.panics.Inc()
		return &RunError{Kind: "panic", Experiment: spec.ID,
			Message: fmt.Sprintf("experiment panicked: %v\n%s", pe.Value, truncate(string(pe.Stack), 4096))}
	case errors.Is(err, context.DeadlineExceeded):
		s.deadlines.Inc()
		return &RunError{Kind: "deadline", Experiment: spec.ID,
			Message: "run exceeded its wall-clock deadline"}
	case errors.Is(err, context.Canceled):
		return &RunError{Kind: "canceled", Experiment: spec.ID,
			Message: "run cancelled (client disconnect or server drain)"}
	default:
		s.failures.Inc()
		return &RunError{Kind: "failed", Experiment: spec.ID, Message: err.Error()}
	}
}

// summarizeError compresses an error for the run.result trace event.
func summarizeError(err error) string {
	var re *RunError
	if errors.As(err, &re) {
		return re.Kind + ": " + truncate(firstLine(re.Message), 200)
	}
	return truncate(firstLine(err.Error()), 200)
}

// writeRunError emits a run failure with its mapped status.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	var re *RunError
	if !errors.As(err, &re) {
		re = &RunError{Kind: "internal", Message: err.Error()}
	}
	writeJSONError(w, re.status(), *re)
}

// serveBundleReport writes the bundle's rendered report as the response
// body — byte-identical to the reproduce CLI's stdout for the same
// spec, whichever of hit/miss/join produced it.
func (s *Server) serveBundleReport(w http.ResponseWriter, b *Bundle, source string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Reprod-Key", b.Key)
	w.Header().Set("X-Reprod-Cache", source)
	_, _ = w.Write([]byte(b.Report))
}

// streamCached answers a ?stream=1 request whose artifact is already
// cached: a single run.result event.
func (s *Server) streamCached(w http.ResponseWriter, b *Bundle) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Reprod-Key", b.Key)
	w.Header().Set("X-Reprod-Cache", "hit")
	nd := obs.NewNDJSONWriter(nopCloser{w})
	nd.AutoFlush(true)
	nd.Sink()(&obs.Event{Time: time.Now(), Kind: "run.result", Detail: "ok key=" + b.Key})
}

// streamProgress streams the call's live trace events as NDJSON until
// the run finishes (final event: run.result) or the client leaves.
func (s *Server) streamProgress(w http.ResponseWriter, r *http.Request, c *call, key string) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Reprod-Key", key)
	nd := obs.NewNDJSONWriter(nopCloser{w})
	nd.AutoFlush(true)
	sink := nd.Sink()

	ch, unsub := c.progress.subscribe()
	defer unsub()

	for {
		select {
		case ev := <-ch:
			sink(&ev)
			if ev.Kind == "run.result" {
				return
			}
		case <-c.done:
			// Drain whatever the hub already queued, then stop; the
			// run.result event was published before done closed.
			for {
				select {
				case ev := <-ch:
					sink(&ev)
					if ev.Kind == "run.result" {
						return
					}
				default:
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

// nopCloser hides the http.ResponseWriter's lack of Close from the
// NDJSON writer while preserving its Flush.
type nopCloser struct{ w http.ResponseWriter }

func (n nopCloser) Write(p []byte) (int, error) { return n.w.Write(p) }
func (n nopCloser) Flush() {
	if f, ok := n.w.(http.Flusher); ok {
		f.Flush()
	}
}

// handleManifest describes a cached artifact set.
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	b, ok := s.cache.Get(key)
	if !ok {
		writeJSONError(w, http.StatusNotFound,
			RunError{Kind: "not_found", Message: "no artifact under key " + key})
		return
	}
	type manifest struct {
		Key       string             `json:"key"`
		Version   string             `json:"version"`
		Spec      Spec               `json:"spec"`
		Report    string             `json:"report"`
		HTML      string             `json:"html"`
		CSVs      []string           `json:"csvs"`
		CSVPrefix string             `json:"csv_prefix"`
		Resources *obs.ResourceStats `json:"resources,omitempty"`
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(manifest{
		Key:       b.Key,
		Version:   b.Version,
		Spec:      b.Spec,
		Report:    "/runs/" + key + "/report",
		HTML:      "/runs/" + key + "/report.html",
		CSVs:      b.CSVNames(),
		CSVPrefix: "/runs/" + key + "/csv/",
		Resources: b.Resources,
	})
}

// handleArtifact serves the report text or HTML page for a cached key.
func (s *Server) handleArtifact(which string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		b, ok := s.cache.Get(key)
		if !ok {
			writeJSONError(w, http.StatusNotFound,
				RunError{Kind: "not_found", Message: "no artifact under key " + key})
			return
		}
		w.Header().Set("X-Reprod-Key", b.Key)
		switch which {
		case "html":
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			_, _ = w.Write([]byte(b.HTML))
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write([]byte(b.Report))
		}
	}
}

// handleCSV serves one CSV sidecar.
func (s *Server) handleCSV(w http.ResponseWriter, r *http.Request) {
	key, name := r.PathValue("key"), r.PathValue("name")
	b, ok := s.cache.Get(key)
	if !ok {
		writeJSONError(w, http.StatusNotFound,
			RunError{Kind: "not_found", Message: "no artifact under key " + key})
		return
	}
	f, ok := b.CSVByName(name)
	if !ok {
		writeJSONError(w, http.StatusNotFound,
			RunError{Kind: "not_found", Message: "no CSV " + name + " under key " + key})
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	_, _ = w.Write(f.Data)
}

// handleHealthz is liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz is readiness: 503 once draining so load balancers stop
// routing new work here while in-flight runs finish.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.isDraining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	_, _ = w.Write([]byte("ready\n"))
}

// Drain performs the graceful shutdown sequence: stop admitting, let
// in-flight runs finish until ctx expires, then cancel them and wait a
// bounded grace for the pool to unwind, and finally flush the cache
// index. It returns nil on a clean drain.
func (s *Server) Drain(ctx context.Context) error {
	s.setDraining()
	s.stopResources()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()

	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Past the drain deadline: cancel every run (they poll their
		// contexts) and give the pool a bounded grace to unwind.
		s.stopRuns()
		select {
		case <-done:
		case <-time.After(s.cfg.ForceGrace):
			err = errors.New("reprod: in-flight runs did not stop within the drain grace")
		}
	}
	if ferr := s.cache.FlushIndex(); ferr != nil && err == nil {
		err = ferr
	}
	return err
}

// truncate clips s to max bytes.
func truncate(s string, max int) string {
	if len(s) <= max {
		return s
	}
	return s[:max] + "…(truncated)"
}

// firstLine clips s at the first newline.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
