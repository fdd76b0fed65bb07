package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// Runner is the parallel experiment engine: it executes a slice of
// experiments on a worker pool and merges their output deterministically.
//
// Each experiment runs on its own goroutine with its own seed-derived
// randomness, registry, and tracer (experiments construct those
// per-run), renders into a private buffer, and writes its CSV sidecars
// to files keyed by its ID — no mutable state is shared across workers.
// Reports are then emitted to the output writer in slice order, so the
// rendered stream, the CSV directory, and every trace digest are
// byte-identical whatever Workers is set to. Only the resources lines
// (process measurements, written to Profiles) are nondeterministic,
// which is why they are kept off the report surface.
type Runner struct {
	// Workers is the pool size; zero or negative means GOMAXPROCS.
	Workers int
	// Options tune every experiment in the batch.
	Options Options
	// CSVDir, when non-empty, receives each report's CSV sidecars.
	CSVDir string
	// Profiles, when non-nil, receives one "  resources: <id> ..." line
	// per experiment as its report is emitted: wall time, allocation, GC
	// and peak-heap figures for the experiment's measurement window.
	// They are wall-clock derived and nondeterministic, so they never
	// touch the report writer, the CSV sidecars, or Report itself.
	Profiles io.Writer
	// Collect, when non-nil, receives every finished report in slice
	// order from the merge loop (never concurrently) — the hook the HTML
	// report writer hangs off.
	Collect func(*Report)
	// Trace, when non-nil, receives lifecycle progress events: exp.start
	// when a worker picks an experiment up, exp.done (with wall-clock
	// Dur) when it finishes, exp.fail when it errors or panics. Events
	// are wall-clock timed and worker-ordered, so they are a live
	// progress surface (the reprod service streams them as NDJSON), not
	// part of the deterministic report output.
	Trace *obs.Tracer
	// Resources is the process sampler each experiment's measurement
	// window opens on; share one to see the windows on its live proc.*
	// gauges. When nil, Run samples on an unpublished sampler of its own.
	Resources *obs.ResourceSampler
	// FlightRecorder, when non-nil, receives a crash dump — tracer ring,
	// resource watermarks, panic value and stack — whenever an experiment
	// dies by panic or deadline, keyed by the experiment ID.
	FlightRecorder *obs.FlightRecorder
	// FlightKey, when non-empty, keys flight records instead of the
	// experiment ID — the reprod service passes its cache key so the
	// crash artifact and the run it belongs to share an address.
	FlightKey string
	// KeepGoing, when true, stops a failing (or panicking) experiment
	// from cancelling the rest of the batch: every experiment runs,
	// successes are emitted in order exactly as usual, and Run returns a
	// *BatchError aggregating the per-experiment failures. When false
	// (the default) the first failure cancels outstanding work and is
	// returned alone, preserving the historical contract.
	KeepGoing bool
}

// JobError is one failed experiment inside a KeepGoing batch.
type JobError struct {
	// Index is the experiment's slice position.
	Index int
	// ID is the experiment identifier.
	ID string
	// Err is the failure, already wrapped with the ID.
	Err error
}

// BatchError aggregates every experiment failure of a KeepGoing run.
type BatchError struct {
	// Failures holds one entry per failed experiment, in slice order.
	Failures []JobError
	// Total is the batch size the failures came out of.
	Total int
}

// Error summarises the batch failure count and the failing IDs.
func (e *BatchError) Error() string {
	ids := make([]string, len(e.Failures))
	for i, f := range e.Failures {
		ids[i] = f.ID
	}
	return fmt.Sprintf("core: %d of %d experiments failed: %s",
		len(e.Failures), e.Total, strings.Join(ids, ", "))
}

// Unwrap exposes the individual failures to errors.Is/As.
func (e *BatchError) Unwrap() []error {
	errs := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		errs[i] = f.Err
	}
	return errs
}

// runnerJob is one experiment's private result, handed from its worker
// to the in-order merge loop. Both the rendered report and the resources
// line are buffered worker-side: the merge loop only copies bytes, so
// neither stream can interleave across workers whatever the pool size.
type runnerJob struct {
	buf     bytes.Buffer
	profBuf bytes.Buffer
	rep     *Report
	err     error
	ok      bool
	done    chan struct{}
}

// emitTrace publishes one lifecycle event on the progress tracer. The
// tracer stamps wall-clock time; a nil Trace makes this a no-op.
func (r *Runner) emitTrace(kind, id, detail string, dur time.Duration) {
	if r.Trace == nil {
		return
	}
	r.Trace.Emit(obs.Event{Kind: kind, Detail: id + detail, Dur: dur})
}

// runOne executes experiment e with panic containment: a panicking
// Run is recovered into a *par.PanicError carrying the job index and
// the faulting stack, so under KeepGoing (or behind the reprod service)
// one crashed experiment cannot take the batch or the process down.
func (r *Runner) runOne(ctx context.Context, i int, e Experiment) (rep *Report, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			rep = nil
			err = &par.PanicError{Index: i, Value: rec, Stack: debug.Stack()}
		}
	}()
	return e.Run(ctx, r.Options)
}

// recordFlight dumps a crash record for experiment id when err is a
// death worth preserving: a contained panic or a context deadline. The
// dump carries the progress-tracer ring and the sampler's watermarks;
// dump failures are reported on the trace stream, never allowed to mask
// the original error.
func (r *Runner) recordFlight(id string, err error, res obs.ResourceStats) {
	if r.FlightRecorder == nil || err == nil {
		return
	}
	var cause string
	var panicValue any
	var stack []byte
	var pe *par.PanicError
	switch {
	case errors.As(err, &pe):
		cause, panicValue, stack = "panic", pe.Value, pe.Stack
	case errors.Is(err, context.DeadlineExceeded):
		cause = "deadline"
	default:
		return
	}
	key := id
	if r.FlightKey != "" {
		key = r.FlightKey
	}
	rec := obs.CaptureFlightRecord(key, cause, panicValue, stack, r.Trace, nil, res)
	if path, dumpErr := r.FlightRecorder.Dump(rec); dumpErr != nil {
		r.emitTrace("flightrec.fail", id, ": "+dumpErr.Error(), 0)
	} else {
		r.emitTrace("flightrec.dump", id, ": "+path, 0)
	}
}

// Run executes exps on the pool and renders each report to w in slice
// order. The first failure cancels outstanding work and is returned
// wrapped with its experiment ID (unless KeepGoing is set, which runs
// everything and aggregates failures into a *BatchError); if ctx is
// cancelled, Run stops mid-simulation and returns ctx.Err(). Output is
// streamed: a report is written as soon as it and all its predecessors
// are done, and a report is always written whole or not at all — the
// merge loop never copies a failed or half-rendered buffer.
func (r *Runner) Run(ctx context.Context, exps []Experiment, w io.Writer) error {
	jobs := make([]runnerJob, len(exps))
	for i := range jobs {
		jobs[i].done = make(chan struct{})
	}

	sampler := r.Resources
	if sampler == nil {
		sampler = obs.NewResourceSampler(nil)
	}

	forEachErr := make(chan error, 1)
	go func() {
		forEachErr <- par.ForEach(ctx, r.Workers, len(exps), func(ctx context.Context, i int) error {
			defer close(jobs[i].done)
			e := exps[i]
			r.emitTrace("exp.start", e.ID, "", 0)
			begin := time.Now()
			endRes := sampler.StartRun()
			rep, err := r.runOne(ctx, i, e)
			res := endRes()
			if err != nil {
				jobs[i].err = fmt.Errorf("core: %s: %w", e.ID, err)
				r.recordFlight(e.ID, err, res)
				r.emitTrace("exp.fail", e.ID, ": "+err.Error(), time.Since(begin))
				if r.KeepGoing {
					return nil
				}
				return jobs[i].err
			}
			res.EventsProcessed = EventsProcessed(rep)
			fmt.Fprintf(&jobs[i].profBuf, "  resources: %s %s\n", e.ID, res)
			if err := rep.Render(&jobs[i].buf); err != nil {
				jobs[i].err = fmt.Errorf("core: %s: %w", e.ID, err)
				r.emitTrace("exp.fail", e.ID, ": "+err.Error(), time.Since(begin))
				if r.KeepGoing {
					return nil
				}
				return jobs[i].err
			}
			fmt.Fprintln(&jobs[i].buf)
			if r.CSVDir != "" {
				if err := rep.WriteCSV(r.CSVDir); err != nil {
					jobs[i].err = fmt.Errorf("core: %s: %w", e.ID, err)
					r.emitTrace("exp.fail", e.ID, ": "+err.Error(), time.Since(begin))
					if r.KeepGoing {
						return nil
					}
					return jobs[i].err
				}
			}
			jobs[i].rep = rep
			jobs[i].ok = true
			r.emitTrace("exp.done", e.ID, "", time.Since(begin))
			return nil
		})
	}()

	// Merge loop: emit buffered reports in slice order. A job that
	// failed (or was interrupted by the induced cancellation) stops the
	// emission — or, under KeepGoing, is recorded and skipped; the
	// pool's deterministic error — the lowest-index real failure, or
	// ctx.Err() — is what the caller sees. Jobs skipped after
	// cancellation never close done, but they are all beyond the
	// failing index, which the loop below never passes.
	var batch *BatchError
	emitted := func() error {
		for i := range jobs {
			select {
			case <-jobs[i].done:
			case <-ctx.Done():
				return ctx.Err()
			}
			if !jobs[i].ok {
				if r.KeepGoing {
					err := jobs[i].err
					if err == nil {
						err = fmt.Errorf("core: %s failed", exps[i].ID)
					}
					if batch == nil {
						batch = &BatchError{Total: len(exps)}
					}
					batch.Failures = append(batch.Failures,
						JobError{Index: i, ID: exps[i].ID, Err: err})
					continue
				}
				return fmt.Errorf("core: %s failed", exps[i].ID)
			}
			if _, err := w.Write(jobs[i].buf.Bytes()); err != nil {
				return err
			}
			if r.Profiles != nil {
				if _, err := r.Profiles.Write(jobs[i].profBuf.Bytes()); err != nil {
					return err
				}
			}
			if r.Collect != nil {
				r.Collect(jobs[i].rep)
			}
		}
		return nil
	}

	emitErr := emitted()
	if err := <-forEachErr; err != nil {
		return err
	}
	if emitErr != nil {
		return emitErr
	}
	if batch != nil {
		return batch
	}
	return nil
}
