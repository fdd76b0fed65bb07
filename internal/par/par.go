// Package par is the deterministic fan-out engine shared by the core
// Runner and the analysis replication loops. It is a leaf package (no
// repo-internal imports) so both internal/core and internal/analysis can
// use it without an import cycle.
//
// Determinism contract: par schedules work concurrently but never
// changes *what* each job computes or *how* results are ordered. Every
// job receives its index; callers derive per-job seeds from the index
// and write results into index-addressed slots, so the merged output is
// byte-identical whatever the worker count.
package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers normalises a worker-count knob: n when positive, otherwise
// GOMAXPROCS. Zero and negative values mean "use all available cores".
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError is a worker panic converted into an error by ForEach. It
// carries the panicking job's index, the recovered value, and the
// goroutine stack at the panic site, so a service layer can report a
// structured failure while the process keeps running.
type PanicError struct {
	// Index is the job index whose fn panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error renders the panic with its job index and stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("par: job %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// safeCall invokes fn(ctx, i), converting a panic into a *PanicError so
// one crashing job cannot take down the pool (or, behind a server, the
// process). The stack is captured at recovery time, inside the
// panicking goroutine, so it points at the faulting experiment code.
func safeCall(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}

// ForEach runs fn(ctx, i) for every i in [0, n) on a pool of workers
// goroutines. Indices are dispatched in order through an atomic counter,
// so with workers == 1 the loop is exactly sequential.
//
// The first failure cancels the shared context so in-flight jobs can
// stop early; undispatched indices are skipped. The returned error is
// deterministic: if the parent context was cancelled, ctx.Err() wins;
// otherwise the real (non-context-cancellation) error with the lowest
// index is returned, so the same inputs yield the same error whatever
// order the workers happened to fail in. A panicking fn does not crash
// the process: it is recovered into a *PanicError carrying the job
// index and stack, and selected like any other job error.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := safeCall(ctx, i, fn); err != nil {
				return err
			}
		}
		return nil
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs = make(map[int]error)
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if runCtx.Err() != nil {
					return
				}
				if err := safeCall(runCtx, i, fn); err != nil {
					mu.Lock()
					errs[i] = err
					mu.Unlock()
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return err
	}
	return firstError(errs)
}

// firstError picks the lowest-index error, preferring real failures over
// the context.Canceled noise that cancel-on-first-error induces in the
// jobs that were already in flight.
func firstError(errs map[int]error) error {
	best, bestReal := -1, -1
	for i, err := range errs {
		if best < 0 || i < best {
			best = i
		}
		if !errors.Is(err, context.Canceled) && (bestReal < 0 || i < bestReal) {
			bestReal = i
		}
	}
	switch {
	case bestReal >= 0:
		return errs[bestReal]
	case best >= 0:
		return errs[best]
	default:
		return nil
	}
}
