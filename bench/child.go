package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// config holds the settings of one invocation and, with workload, mode,
// t0 and depth filled in by the parent, what one child is told to do.
type config struct {
	workload string
	mode     string // "run", "setup", "check" or "probes"
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	tmp      string // directory for cache dirs, profiles and span dumps
	t0       int64  // parent's wall clock just before the spawn, Unix ns
	depth    int    // scheduler depth for the simnet probe
}

// runResult is what a child prints for its parent: one JSON object on
// standard output.
type runResult struct {
	Workload string  `json:"workload"`
	Metrics  metrics `json:"metrics"` // end-to-end, measured in this process
	Layer    metrics `json:"layer"`   // per-layer: counts always, spans and CPU shares when traced
	// Attempted and Failed count operations and output checks;
	// fail_share is their ratio.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Digest is the SHA-256 of every rendered report and CSV (response
	// bodies in service_mix, address sets in tcp_crawl): equal digests
	// mean a change left every output byte identical. Rep0 covers rep 0
	// alone, which the check child recomputes in a fresh process.
	Digest string   `json:"output_digest"`
	Rep0   string   `json:"rep0_digest,omitempty"`
	Notes  []string `json:"notes,omitempty"`
	// ReadyS is the time from the parent's spawn to the end of set-up.
	ReadyS float64 `json:"ready_s"`
}

// run is the state of one child process.
type run struct {
	cfg    config
	mu     sync.Mutex // guards res.Attempted, res.Failed and res.Problems
	res    runResult
	spans  *spanLog
	digest hash.Hash
	prof   bytes.Buffer
	start  time.Time // first timed operation
}

func newRun(cfg config) *run {
	return &run{
		cfg:    cfg,
		res:    runResult{Workload: cfg.workload, Metrics: metrics{}, Layer: metrics{}},
		spans:  newSpanLog(),
		digest: sha256.New(),
	}
}

// ready marks the end of set-up. It reports true in a set-up-only
// child, which must then tear down and return without timing anything.
// In a traced child it starts the CPU profile, so set-up is never
// profiled and never timed.
func (r *run) ready() (setupOnly bool, err error) {
	r.res.ReadyS = float64(time.Now().UnixNano()-r.cfg.t0) / 1e9
	if r.cfg.mode == "setup" {
		return true, nil
	}
	if r.cfg.trace {
		if err := pprof.StartCPUProfile(&r.prof); err != nil {
			return false, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	r.start = time.Now()
	return false, nil
}

// within reports whether share of the run's time budget is still unspent.
func (r *run) within(share float64) bool {
	return time.Since(r.start).Seconds() < r.cfg.seconds*share
}

// op counts one attempted operation or output check; a false ok counts
// it as failed and keeps the first few explanations. The two service_mix
// clients call it concurrently.
func (r *run) op(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.Attempted++
	if ok {
		return
	}
	r.res.Failed++
	if len(r.res.Problems) < 20 {
		r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
	}
}

// stopProfile ends the timed region of a traced child. Output checks
// and the small-operation loop of the experiment workloads come after
// it, so their CPU time is not charged to any layer.
func (r *run) stopProfile() {
	if r.cfg.trace {
		pprof.StopCPUProfile()
	}
}

// finish closes the run: peak memory, the output digest and, in a
// traced child, the CPU shares and the span dump.
func (r *run) finish() error {
	// The experiment workloads report the median of per-rep peaks; the
	// others the peak of the whole process.
	if _, ok := r.res.Metrics["peak_rss_mib"]; !ok {
		rss, err := peakRSSMiB()
		if err != nil {
			return err
		}
		r.res.Metrics.set("peak_rss_mib", rss, "MiB", 1)
	}
	r.res.Digest = hex.EncodeToString(r.digest.Sum(nil))
	if !r.cfg.trace {
		return nil
	}
	samples, err := decodeProfile(r.prof.Bytes())
	if err != nil {
		return err
	}
	cpuShares(samples, r.res.Layer)
	return r.writeSpans()
}

// writeSpans dumps the in-memory spans, as the traced child exits.
func (r *run) writeSpans() error {
	data, err := json.Marshal(r.spans.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(r.cfg.tmp, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.cfg.tmp, "spans-"+r.cfg.workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	r.res.Notes = append(r.res.Notes, fmt.Sprintf("%d spans written to %s", len(r.spans.spans), path))
	return nil
}

// allocWindow measures what one rep allocated.
type allocWindow struct{ before runtime.MemStats }

func openAllocWindow() *allocWindow {
	w := &allocWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

// close returns the bytes and the objects allocated since the window opened.
func (w *allocWindow) close() (bytes, objects float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - w.before.TotalAlloc), float64(after.Mallocs - w.before.Mallocs)
}

// childMain runs one child and prints its result.
func childMain(cfg config) error {
	var res any
	if cfg.mode == "probes" {
		out := metrics{}
		if err := runProbes(cfg, out); err != nil {
			return err
		}
		res = out
	} else {
		w, ok := workloadByName(cfg.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", cfg.workload)
		}
		r := newRun(cfg)
		if err := w.run(r); err != nil {
			return fmt.Errorf("%s: %w", cfg.workload, err)
		}
		if cfg.mode == "run" {
			if err := r.finish(); err != nil {
				return fmt.Errorf("%s: %w", cfg.workload, err)
			}
		}
		res = &r.res
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
