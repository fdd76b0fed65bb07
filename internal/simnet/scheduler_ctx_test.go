package simnet

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRunUntilCtxCancellation checks a cancelled context stops the run
// loop mid-simulation and leaves the remaining events queued.
func TestRunUntilCtxCancellation(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0).UTC())
	ctx, cancel := context.WithCancel(context.Background())
	executed := 0
	var tick func()
	tick = func() {
		executed++
		if executed == ctxCheckInterval {
			cancel()
		}
		s.After(time.Millisecond, tick)
	}
	s.After(time.Millisecond, tick)

	err := s.RunUntilCtx(ctx, s.Now().Add(24*time.Hour))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunUntilCtx = %v, want context.Canceled", err)
	}
	// The loop polls every ctxCheckInterval events, so it must stop at
	// the first check after the cancel, far short of the 86.4M events a
	// full day of millisecond ticks would execute.
	if executed > 2*ctxCheckInterval {
		t.Fatalf("executed %d events after cancellation", executed)
	}
	if s.Pending() == 0 {
		t.Fatal("cancelled run drained the queue")
	}
}

// TestRunUntilCtxBackgroundMatchesRunUntil checks the ctx-aware loop with
// a background context behaves exactly like RunUntil: runs to the
// deadline and advances the clock there.
func TestRunUntilCtxBackgroundMatchesRunUntil(t *testing.T) {
	run := func(ctx context.Context) (int, time.Time) {
		s := NewScheduler(time.Unix(0, 0).UTC())
		n := 0
		for i := 0; i < 10; i++ {
			s.After(time.Duration(i)*time.Second, func() { n++ })
		}
		deadline := s.Now().Add(5 * time.Second)
		if ctx == nil {
			s.RunUntil(deadline)
		} else if err := s.RunUntilCtx(ctx, deadline); err != nil {
			t.Fatal(err)
		}
		return n, s.Now()
	}
	n1, t1 := run(nil)
	n2, t2 := run(context.Background())
	if n1 != n2 || !t1.Equal(t2) {
		t.Fatalf("RunUntil (%d, %v) != RunUntilCtx (%d, %v)", n1, t1, n2, t2)
	}
	if n1 != 6 { // events at 0..5 seconds inclusive
		t.Fatalf("executed %d events, want 6", n1)
	}
}

// TestEventPoolRecycles checks pooled event structs are reused and that
// the pool drops the fn reference on recycle.
func TestEventPoolRecycles(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0).UTC())
	for i := 0; i < 10; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	s.RunFor(time.Second)
	if len(s.free) != 10 {
		t.Fatalf("free list has %d events, want 10", len(s.free))
	}
	for _, ev := range s.free {
		if ev.fn != nil {
			t.Fatal("recycled event retains its closure")
		}
	}
	// Re-scheduling must come from the pool, not fresh allocations.
	s.After(time.Millisecond, func() {})
	if len(s.free) != 9 {
		t.Fatalf("free list has %d events after reuse, want 9", len(s.free))
	}
	s.RunFor(time.Second)
}
