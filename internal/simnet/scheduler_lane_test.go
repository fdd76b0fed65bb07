package simnet

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
)

// laneOracle drives a Scheduler beside its specification: every event is
// recorded with its due time (clamped as At clamps it) and its insertion
// number, and the events run so far must be a prefix of the records
// sorted by (at, seq). The same-instant lane is what it exercises, so
// most callbacks schedule at the current instant, either at d = 0 or at
// a time already past, while heap events due at that instant wait.
type laneOracle struct {
	t        *testing.T
	s        *Scheduler
	reg      *obs.Registry
	rng      *rand.Rand
	at       []int64 // due time by insertion number
	ran      []int   // insertion numbers in execution order
	maxDepth int
}

func newLaneOracle(t *testing.T, seed int64) *laneOracle {
	o := &laneOracle{
		t:   t,
		s:   NewScheduler(time.Unix(1000, 0).UTC()),
		reg: obs.NewRegistry(),
		rng: rand.New(rand.NewSource(seed)),
	}
	o.s.SetMetrics(o.reg)
	return o
}

// pending is the specification's queue depth.
func (o *laneOracle) pending() int { return len(o.at) - len(o.ran) }

// checkDepth holds the depth gauges and Pending to the specification.
func (o *laneOracle) checkDepth(where string) {
	o.t.Helper()
	if got := o.s.Pending(); got != o.pending() {
		o.t.Fatalf("%s: Pending() = %d, want %d", where, got, o.pending())
	}
	if got := o.reg.Gauge("simnet.sched.depth").Value(); got != int64(o.pending()) {
		o.t.Fatalf("%s: depth gauge = %d, want %d", where, got, o.pending())
	}
	if got := o.reg.Gauge("simnet.sched.depth.max").Value(); got != int64(o.maxDepth) {
		o.t.Fatalf("%s: depth.max gauge = %d, want %d", where, got, o.maxDepth)
	}
}

// add schedules one event at t with the given number of children, which
// it schedules when it runs.
func (o *laneOracle) add(t time.Time, children int) {
	o.addFn(t, func() { o.spawn(children) })
}

// addFn schedules body at t, recording the event and checking the clock
// and the depth gauges when it runs.
func (o *laneOracle) addFn(t time.Time, body func()) {
	id := len(o.at)
	at := t.UnixNano()
	if now := o.s.Now().UnixNano(); at < now {
		at = now
	}
	o.at = append(o.at, at)
	o.maxDepth = max(o.maxDepth, o.pending())
	o.s.At(t, func() {
		o.ran = append(o.ran, id)
		if got := o.s.Now().UnixNano(); got != o.at[id] {
			o.t.Fatalf("event %d ran at %d, due at %d", id, got, o.at[id])
		}
		o.checkDepth("after step")
		body()
	})
	o.checkDepth("after schedule")
}

// spawn schedules children at the current instant (d = 0 or a past
// time), just ahead, or later.
func (o *laneOracle) spawn(children int) {
	for i := 0; i < children; i++ {
		now := o.s.Now()
		var t time.Time
		switch o.rng.Intn(4) {
		case 0:
			t = now
		case 1:
			t = now.Add(-time.Duration(1+o.rng.Intn(5)) * time.Millisecond)
		case 2:
			t = now.Add(time.Duration(1+o.rng.Intn(3)) * time.Millisecond)
		default:
			t = now.Add(time.Duration(o.rng.Intn(20)) * time.Millisecond)
		}
		grand := 0
		if o.rng.Intn(3) == 0 {
			grand = 1 + o.rng.Intn(2)
		}
		o.add(t, grand)
	}
}

// seed queues n top-level events over a handful of instants from the
// current one, so same-instant heap events are queued before the clock
// reaches them and callbacks add lane events among them.
func (o *laneOracle) seed(n int) {
	now := o.s.Now()
	for i := 0; i < n; i++ {
		o.add(now.Add(time.Duration(o.rng.Intn(8))*time.Millisecond), o.rng.Intn(3))
	}
}

// checkOrder requires the events run so far to be the first len(ran) of
// all recorded events sorted by (at, seq).
func (o *laneOracle) checkOrder(stage string) {
	o.t.Helper()
	want := make([]int, len(o.at))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(i, j int) bool { return o.at[want[i]] < o.at[want[j]] })
	for i, id := range o.ran {
		if want[i] != id {
			o.t.Fatalf("%s: position %d ran event %d, (at, seq) order says %d", stage, i, id, want[i])
		}
	}
	o.checkDepth(stage)
}

// laneLen is the number of events waiting on the lane.
func (o *laneOracle) laneLen() int { return len(o.s.lane) - o.s.laneHead }

// TestSchedulerLaneMatchesSortOracle checks the same-instant lane
// against a reference sort by (at, seq) through every way a run starts
// and stops: RunUntil, a RunUntil deadline equal to now, Drain, and a
// RunUntilCtx cancelled while lane events are pending, after which a
// later run executes them in order.
func TestSchedulerLaneMatchesSortOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		o := newLaneOracle(t, seed)
		s := o.s

		// Queued before the run: due now (lane from the start, outside a
		// run), in the past (clamped to now) and over later instants.
		o.add(s.Now(), 2)
		o.add(s.Now().Add(-time.Hour), 1)
		o.seed(400)
		s.RunUntil(s.Now().Add(5 * time.Millisecond))
		o.checkOrder("RunUntil")
		if o.laneLen() != 0 {
			t.Fatalf("seed %d: RunUntil left %d lane events", seed, o.laneLen())
		}

		// A deadline equal to now runs only what is due now, including
		// what those events add at now, and leaves the clock there.
		now := s.Now()
		o.add(now, 3)
		o.add(now.Add(-time.Second), 2)
		o.add(now.Add(time.Millisecond), 1)
		s.RunUntil(now)
		o.checkOrder("RunUntil(now)")
		if !s.Now().Equal(now) {
			t.Fatalf("seed %d: RunUntil(now) moved the clock to %v", seed, s.Now())
		}
		for _, id := range o.ran {
			if o.at[id] > now.UnixNano() {
				t.Fatalf("seed %d: RunUntil(now) ran event %d due later", seed, id)
			}
		}

		// Drain in small steps, then to empty.
		o.seed(200)
		for i := 0; i < 20 && s.Pending() > 0; i++ {
			s.Drain(1 + o.rng.Intn(7))
			o.checkOrder("Drain(k)")
		}
		s.Drain(1 << 20)
		o.checkOrder("Drain")
		if s.Pending() != 0 {
			t.Fatalf("seed %d: Drain left %d events", seed, s.Pending())
		}

		// Cancel mid-instant: the first of 51 heap events due at one
		// instant cancels and queues 1.5 × ctxCheckInterval more there,
		// so the check after at most ctxCheckInterval executions finds
		// lane events pending.
		ctx, cancel := context.WithCancel(context.Background())
		at := s.Now().Add(time.Millisecond)
		o.addFn(at, func() {
			cancel()
			for i := 0; i < ctxCheckInterval+ctxCheckInterval/2; i++ {
				o.add(s.Now(), 0)
			}
		})
		for i := 0; i < 50; i++ {
			o.add(at, 0)
		}
		err := s.RunUntilCtx(ctx, at.Add(time.Hour))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("seed %d: RunUntilCtx = %v, want context.Canceled", seed, err)
		}
		o.checkOrder("cancelled")
		if o.laneLen() == 0 {
			t.Fatalf("seed %d: cancellation left no lane events pending", seed)
		}
		if !s.Now().Equal(at) {
			t.Fatalf("seed %d: cancelled run moved the clock to %v", seed, s.Now())
		}
		// Outside any run: one more at now, which queues behind the lane,
		// and one just after. A later run executes everything in order.
		o.add(s.Now(), 1)
		o.add(s.Now().Add(time.Millisecond), 1)
		s.RunUntil(at.Add(time.Second))
		o.checkOrder("after cancel")
		if s.Pending() != 0 {
			t.Fatalf("seed %d: %d events left after the run", seed, s.Pending())
		}
		if len(o.ran) != len(o.at) {
			t.Fatalf("seed %d: ran %d of %d events", seed, len(o.ran), len(o.at))
		}
	}
}
