package par

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Fatalf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-2); got < 1 {
		t.Fatalf("Workers(-2) = %d, want >= 1", got)
	}
}

// TestForEachCoversAllIndices checks every index runs exactly once, for
// both the sequential and the pooled path.
func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 4, 64} {
		const n = 100
		var mu sync.Mutex
		seen := make(map[int]int)
		err := ForEach(context.Background(), workers, n, func(_ context.Context, i int) error {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != n {
			t.Fatalf("workers=%d: ran %d distinct indices, want %d", workers, len(seen), n)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestForEachDeterministicResults fills an index-addressed slice in
// parallel and checks it matches the sequential fill.
func TestForEachDeterministicResults(t *testing.T) {
	const n = 50
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 7} {
		got := make([]int, n)
		if err := ForEach(context.Background(), workers, n, func(_ context.Context, i int) error {
			got[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestForEachRealErrorBeatsCancellation checks the deterministic error
// choice: the real failure is reported, not the context.Canceled noise
// from the jobs it interrupted.
func TestForEachRealErrorBeatsCancellation(t *testing.T) {
	errA := errors.New("a")
	for trial := 0; trial < 20; trial++ {
		err := ForEach(context.Background(), 4, 8, func(jobCtx context.Context, i int) error {
			if i == 1 {
				return errA
			}
			// Everyone else blocks until the failure cancels the pool and
			// surfaces a cancellation error, which must not mask errA.
			<-jobCtx.Done()
			return jobCtx.Err()
		})
		if !errors.Is(err, errA) {
			t.Fatalf("trial %d: got %v, want %v", trial, err, errA)
		}
	}
}

// TestForEachParentCancellation checks a cancelled parent context wins
// over job errors and stops the loop promptly.
func TestForEachParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- ForEach(ctx, 2, 1000, func(jobCtx context.Context, i int) error {
			started.Add(1)
			select {
			case <-jobCtx.Done():
				return jobCtx.Err()
			case <-release:
				return nil
			}
		})
	}()
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach did not return after cancellation")
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("all %d jobs started despite cancellation", n)
	}
	close(release)
}

// TestForEachSequentialPreCancelled checks the workers==1 fast path
// still honours an already-cancelled context.
func TestForEachSequentialPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	err := ForEach(ctx, 1, 10, func(context.Context, int) error { ran++; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("%d jobs ran under a cancelled context", ran)
	}
}

// TestForEachRecoversPanics checks a panicking job surfaces as a
// *PanicError carrying the job index and a stack, on both the
// sequential and the pooled path, instead of crashing the process.
func TestForEachRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), workers, 8, func(_ context.Context, i int) error {
			if i == 3 {
				panic("boom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v (%T), want *PanicError", workers, err, err)
		}
		if pe.Index != 3 {
			t.Errorf("workers=%d: Index = %d, want 3", workers, pe.Index)
		}
		if pe.Value != "boom" {
			t.Errorf("workers=%d: Value = %v, want boom", workers, pe.Value)
		}
		if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "par_test.go") {
			t.Errorf("workers=%d: stack missing panic site:\n%s", workers, pe.Stack)
		}
		if !strings.Contains(err.Error(), "job 3 panicked: boom") {
			t.Errorf("workers=%d: Error() = %q", workers, err.Error())
		}
	}
}

// TestForEachPanicBeatsInducedCancellation checks a panic is selected
// like a real error: jobs interrupted by the panic-triggered
// cancellation do not mask it.
func TestForEachPanicBeatsInducedCancellation(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		err := ForEach(context.Background(), 4, 8, func(jobCtx context.Context, i int) error {
			if i == 1 {
				panic(fmt.Sprintf("trial %d", trial))
			}
			<-jobCtx.Done()
			return jobCtx.Err()
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Index != 1 {
			t.Fatalf("trial %d: got %v, want *PanicError at index 1", trial, err)
		}
	}
}
