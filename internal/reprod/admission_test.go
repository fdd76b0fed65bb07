package reprod

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestAdmissionFastPathAndShed(t *testing.T) {
	reg := obs.NewRegistry()
	a := NewAdmission(2, 0, reg)
	ctx := context.Background()

	r1, err := a.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a.active.Value() != 2 {
		t.Errorf("Active = %d, want 2", a.active.Value())
	}

	// Both slots busy and maxQueue is 0: the next arrival is shed, not
	// parked.
	if _, err := a.Acquire(ctx); !errors.Is(err, ErrShed) {
		t.Fatalf("Acquire with full slots and zero queue = %v, want ErrShed", err)
	}
	if got := reg.Counter("reprod.shed.total").Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	r1()
	r3, err := a.Acquire(ctx)
	if err != nil {
		t.Fatalf("Acquire after release = %v", err)
	}
	r2()
	r3()
	if a.active.Value() != 0 {
		t.Errorf("Active after releases = %d, want 0", a.active.Value())
	}
}

func TestAdmissionQueueGrantsInOrderOfAvailability(t *testing.T) {
	a := NewAdmission(1, 1, nil)
	ctx := context.Background()

	r1, err := a.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}

	granted := make(chan func(), 1)
	go func() {
		r, err := a.Acquire(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		granted <- r
	}()

	// Wait until the second acquirer is parked in the queue.
	waitFor(t, func() bool { return a.waiting.Load() == 1 })

	// The queue is full now: a third arrival sheds.
	if _, err := a.Acquire(ctx); !errors.Is(err, ErrShed) {
		t.Fatalf("Acquire with full queue = %v, want ErrShed", err)
	}

	r1()
	select {
	case r2 := <-granted:
		r2()
	case <-time.After(5 * time.Second):
		t.Fatal("queued acquirer never got the freed slot")
	}
}

func TestAdmissionContextCancelWhileQueued(t *testing.T) {
	a := NewAdmission(1, 4, nil)
	r1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer r1()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx)
		errc <- err
	}()
	waitFor(t, func() bool { return a.waiting.Load() == 1 })
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Acquire after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled acquirer never returned")
	}
	waitFor(t, func() bool { return a.waiting.Load() == 0 })
}

func TestAdmissionReleaseIsIdempotent(t *testing.T) {
	a := NewAdmission(1, 0, nil)
	r, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r()
	r() // double release must not free a phantom slot
	if a.active.Value() != 0 {
		t.Fatalf("Active = %d, want 0", a.active.Value())
	}
	r2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2()
	// With the single slot free again, a second Acquire must still be the
	// only grant — a leaked token from the double release would allow two.
	r3, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("second concurrent Acquire = %v, want ErrShed (slot cap 1)", err)
	}
	r3()
}

// TestAdmissionFloodInvariant throws a burst at a small gate and checks
// the conservation law: every request is granted or shed, concurrent
// grants never exceed maxActive, and the gate is empty afterwards.
func TestAdmissionFloodInvariant(t *testing.T) {
	reg := obs.NewRegistry()
	const maxActive, maxQueue, n = 3, 5, 200
	a := NewAdmission(maxActive, maxQueue, reg)

	var granted, shed, peak atomic.Int64
	var inUse atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := a.Acquire(context.Background())
			if errors.Is(err, ErrShed) {
				shed.Add(1)
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			cur := inUse.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			granted.Add(1)
			time.Sleep(time.Millisecond)
			inUse.Add(-1)
			release()
		}()
	}
	wg.Wait()

	if got := granted.Load() + shed.Load(); got != n {
		t.Errorf("granted+shed = %d, want %d", got, n)
	}
	if peak.Load() > maxActive {
		t.Errorf("peak concurrent grants = %d, exceeds maxActive %d", peak.Load(), maxActive)
	}
	if granted.Load() < maxActive {
		t.Errorf("granted = %d, want at least %d", granted.Load(), maxActive)
	}
	if a.active.Value() != 0 || a.waiting.Load() != 0 {
		t.Errorf("gate not empty after flood: active=%d waiting=%d", a.active.Value(), a.waiting.Load())
	}
	if got := reg.Counter("reprod.shed.total").Value(); got != shed.Load() {
		t.Errorf("shed counter = %d, observed %d", got, shed.Load())
	}
}

// waitFor polls cond until true or the deadline, failing the test on
// timeout.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}
