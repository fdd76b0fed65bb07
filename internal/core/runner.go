package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
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
// byte-identical whatever Options.Workers is set to. Only the resource
// stats handed to Collect (process measurements) are nondeterministic,
// which is why they are kept off the report surface.
type Runner struct {
	// Options tune every experiment in the batch; Options.Workers is
	// also the pool size (zero or negative means GOMAXPROCS).
	Options Options
	// CSVDir, when non-empty, receives each report's CSV sidecars.
	CSVDir string
	// Collect, when non-nil, receives every finished report in slice
	// order from the merge loop (never concurrently), together with the
	// resource stats of the experiment's measurement window: wall time,
	// allocation, GC and peak-heap figures. The stats are wall-clock
	// derived and nondeterministic, so they never touch the report
	// writer, the CSV sidecars, or Report itself.
	Collect func(*Report, obs.ResourceStats)
	// Trace, when non-nil, receives lifecycle progress events: exp.start
	// when a worker picks an experiment up, exp.done (with wall-clock
	// Dur) when it finishes, exp.fail when it errors or panics. Events
	// are wall-clock timed and worker-ordered, so they are a live
	// progress surface (the reprod service streams them as NDJSON), not
	// part of the deterministic report output.
	Trace *obs.Tracer
	// FlightRecorder, when non-nil, receives a crash dump — tracer ring,
	// resource watermarks, panic value and stack — whenever an experiment
	// dies by panic or deadline, keyed by the experiment ID.
	FlightRecorder *obs.FlightRecorder
	// FlightKey, when non-empty, keys flight records instead of the
	// experiment ID — the reprod service passes its cache key so the
	// crash artifact and the run it belongs to share an address.
	FlightKey string
}

// sampleInterval paces the wall ticker Run drives its resource sampler
// with, so an experiment's peak heap is the highest of its window's
// ticks and its two ends rather than of its two ends alone.
const sampleInterval = 10 * time.Millisecond

// JobError is one failed experiment of a batch.
type JobError struct {
	// ID is the experiment identifier.
	ID string
	// Err is the cause.
	Err error
}

// Error renders the failure as "core: <id>: <cause>".
func (e *JobError) Error() string { return "core: " + e.ID + ": " + e.Err.Error() }

// Unwrap exposes the cause to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// runnerJob is one experiment's private result, handed from its worker
// to the in-order merge loop. The rendered report is buffered
// worker-side: the merge loop only copies bytes, so reports cannot
// interleave across workers whatever the pool size.
type runnerJob struct {
	buf  bytes.Buffer
	rep  *Report
	res  obs.ResourceStats
	err  *JobError
	done chan struct{}
}

// emitTrace publishes one lifecycle event on the progress tracer. The
// tracer stamps wall-clock time; a nil Trace makes this a no-op.
func (r *Runner) emitTrace(kind, id, detail string, dur time.Duration) {
	if r.Trace == nil {
		return
	}
	r.Trace.Emit(obs.Event{Kind: kind, Detail: id + detail, Dur: dur})
}

// errNilReport is the cause of a JobError for an experiment whose Run
// returned neither a report nor an error.
var errNilReport = errors.New("experiment returned no report and no error")

// contain calls fn with panic containment: a panic is recovered into a
// *par.PanicError carrying the job index and the faulting stack, so one
// crashed experiment cannot take the batch (or, behind the reprod
// service, the process) down.
func contain(i int, fn func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &par.PanicError{Index: i, Value: rec, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// writeOut renders rep into buf and writes its CSV sidecars.
func (r *Runner) writeOut(buf *bytes.Buffer, rep *Report) error {
	if err := rep.Render(buf); err != nil {
		return err
	}
	fmt.Fprintln(buf)
	if r.CSVDir == "" {
		return nil
	}
	return rep.WriteCSV(r.CSVDir)
}

// recordFlight dumps a crash record for experiment id when err is a
// death worth preserving: a contained panic or a context deadline. The
// dump carries the progress-tracer ring and the sampler's watermarks;
// dump failures are reported on the trace stream, never allowed to mask
// the original error.
func (r *Runner) recordFlight(id string, err error, res obs.ResourceStats) {
	if r.FlightRecorder == nil {
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

// Run executes every experiment of exps on the pool and renders each
// successful report to w in slice order; a failing (or panicking)
// experiment never stops the others. An experiment fails when its Run
// errors, panics, or returns neither a report nor an error, and when
// rendering its report or writing its CSV sidecars errors or panics.
// Output is streamed: a report is written as soon as it and all its
// predecessors are done, and a report is always written whole or not at
// all — the merge loop never copies a failed or half-rendered buffer.
// If ctx is cancelled, Run stops mid-simulation and returns ctx.Err();
// otherwise it returns nil, a write error from w, or errors.Join of one
// *JobError per failed experiment, in slice order.
//
// For the length of the batch Run samples process resources on a
// sampler of its own, ticked every sampleInterval; each experiment's
// stats are the window its Run call spent open on it.
func (r *Runner) Run(ctx context.Context, exps []Experiment, w io.Writer) error {
	jobs := make([]runnerJob, len(exps))
	for i := range jobs {
		jobs[i].done = make(chan struct{})
	}

	sampler := obs.NewResourceSampler(nil)
	stopSampling := sampler.Start(sampleInterval)
	defer stopSampling()

	// The pool goroutine sets poolErr before it closes pool.
	var poolErr error
	pool := make(chan struct{})
	go func() {
		defer close(pool)
		poolErr = par.ForEach(ctx, r.Options.Workers, len(exps), func(ctx context.Context, i int) error {
			job, e := &jobs[i], exps[i]
			defer close(job.done)
			r.emitTrace("exp.start", e.ID, "", 0)
			begin := time.Now()
			endRes := sampler.StartRun()
			var rep *Report
			err := contain(i, func() (err error) {
				rep, err = e.Run(ctx, r.Options)
				return err
			})
			job.res = endRes()
			if err == nil && rep == nil {
				err = errNilReport
			}
			if err == nil {
				err = contain(i, func() error { return r.writeOut(&job.buf, rep) })
			}
			if err != nil {
				job.err = &JobError{ID: e.ID, Err: err}
				r.recordFlight(e.ID, err, job.res)
				r.emitTrace("exp.fail", e.ID, ": "+err.Error(), time.Since(begin))
				return nil
			}
			job.res.EventsProcessed = EventsProcessed(rep)
			job.rep = rep
			r.emitTrace("exp.done", e.ID, "", time.Since(begin))
			return nil
		})
	}()

	// Merge loop: emit buffered reports in slice order and set failures
	// aside. Every dispatched job closes done before the pool returns;
	// once ctx is cancelled the pool skips the rest, and the loop returns
	// on ctx.Done instead. A pool that returns with jobs undispatched
	// (which only an uncontained worker failure can cause) ends the loop
	// too, and Run reports the pool's error.
	var failed []error
	emit := func() error {
		for i := range jobs {
			job := &jobs[i]
			select {
			case <-job.done:
			case <-ctx.Done():
				return ctx.Err()
			case <-pool:
				select {
				case <-job.done:
				default:
					return nil
				}
			}
			if job.err != nil {
				failed = append(failed, job.err)
				continue
			}
			if _, err := w.Write(job.buf.Bytes()); err != nil {
				return err
			}
			if r.Collect != nil {
				r.Collect(job.rep, job.res)
			}
		}
		return nil
	}

	emitErr := emit()
	<-pool
	if poolErr != nil {
		return poolErr
	}
	// A cancelled ctx wins over whatever the interrupted jobs reported.
	if err := ctx.Err(); err != nil {
		return err
	}
	if emitErr != nil {
		return emitErr
	}
	return errors.Join(failed...)
}
