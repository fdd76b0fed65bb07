// Package simnet is the discrete-event network simulator that stands in
// for the live Bitcoin network: a virtual-time event scheduler, hosts
// running the internal/node state machine, link latencies (optionally
// AS-aware), NAT semantics for unreachable nodes, and dial/timeout
// behaviour. It is the substrate for the paper's propagation-side
// experiments (Figures 1, 6, 7, 10, 11 and the §V ablations).
package simnet

import (
	"context"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// event is one heap slot: a due time, the FIFO tiebreak, and the payload
// to run. Times are kept as Unix nanoseconds so heap comparisons are
// plain integer compares.
type event struct {
	at  int64  // UnixNano
	seq uint64 // FIFO tiebreak for simultaneous events
	payload
}

// payload is what an event does when it fires. It is one of three
// shapes, told apart by which fields are set, so that the two hot
// schedulers — Host.Schedule and Network.transmit — queue their work
// without allocating a closure:
//
//   - callback (At/After):   fn only.
//   - host-guarded callback: fn, host and epoch; fn is skipped when the
//     host session that armed it has ended.
//   - delivery:              link, host (the destination), epoch and msg;
//     dropped when the link closed or the destination session ended.
type payload struct {
	fn    func()
	host  *Host
	epoch int
	link  *link
	msg   wire.Message
}

// run applies the payload's staleness guard and executes it.
func (p *payload) run() {
	h := p.host
	switch {
	case p.link != nil:
		if p.link.closed || h.epoch != p.epoch || h.node == nil || !h.online {
			return
		}
		h.node.OnMessage(p.link.id, p.msg)
	case h != nil:
		if h.epoch != p.epoch || !h.online {
			return
		}
		p.fn()
	default:
		p.fn()
	}
}

// eventHeap is a binary min-heap ordered by (at, seq). seq is unique, so
// the order is total and the pop sequence does not depend on the heap's
// internal layout.
type eventHeap []*event

// before reports whether a fires before b.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push adds ev, sifting it up from the new leaf.
func (h *eventHeap) push(ev *event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	*h = q
}

// pop removes and returns the earliest event, sifting the last leaf down
// from the root. The heap must not be empty.
func (h *eventHeap) pop() *event {
	q := *h
	n := len(q) - 1
	top, last := q[0], q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && before(q[child+1], q[child]) {
			child++
		}
		if !before(q[child], last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = last
	return top
}

// Scheduler executes callbacks in virtual-time order. It is
// single-threaded: all simulation state (nodes, hosts, addrman) is only
// touched from inside scheduled callbacks, so no locking is needed
// anywhere in the simulation.
type Scheduler struct {
	now    time.Time
	seq    uint64
	events eventHeap
	count  uint64 // total events executed, for reporting

	// free recycles event structs popped from the heap. The scheduler is
	// single-threaded, so a plain slice beats sync.Pool: no locking, and
	// the structs stay warm in cache. Capped so a burst does not pin
	// memory forever.
	free []*event

	// Metric handles are nil (no-op) until SetMetrics installs a
	// registry, so the hot loop pays one predictable branch when
	// observability is off.
	mDepth    *obs.Gauge
	mDepthMax *obs.Gauge
	mExecuted *obs.Counter
	mEvAlloc  *obs.Counter
	mEvReused *obs.Counter
	mFreeLen  *obs.Gauge
}

// NewScheduler creates a scheduler starting at epoch.
func NewScheduler(epoch time.Time) *Scheduler {
	return &Scheduler{now: epoch}
}

// SetMetrics wires the scheduler's queue-depth gauges, executed-event
// counter, and event-volume/free-list instruments into reg
// (simnet.sched.* names). A nil registry detaches them. The scheduler is
// single-threaded and virtual-time, so every one of these values —
// including the allocation/reuse split — is a pure function of the
// seeded workload and belongs in the deterministic series.
func (s *Scheduler) SetMetrics(reg *obs.Registry) {
	s.mDepth = reg.Gauge("simnet.sched.depth")
	s.mDepthMax = reg.Gauge("simnet.sched.depth.max")
	s.mExecuted = reg.Counter("simnet.sched.executed")
	s.mEvAlloc = reg.Counter("simnet.sched.events.alloc")
	s.mEvReused = reg.Counter("simnet.sched.events.reused")
	s.mFreeLen = reg.Gauge("simnet.sched.freelist.len")
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time { return s.now }

// Executed returns the number of events executed so far.
func (s *Scheduler) Executed() uint64 { return s.count }

// Pending returns the number of queued events.
func (s *Scheduler) Pending() int { return len(s.events) }

// maxFree bounds the event free list so a transient queue-depth spike
// does not pin its structs for the rest of the run.
const maxFree = 4096

// getEvent takes a recycled event struct or allocates a fresh one.
func (s *Scheduler) getEvent(at int64, p payload) *event {
	s.seq++
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		ev.at, ev.seq, ev.payload = at, s.seq, p
		s.mEvReused.Inc()
		s.mFreeLen.Set(int64(n - 1))
		return ev
	}
	s.mEvAlloc.Inc()
	return &event{at: at, seq: s.seq, payload: p}
}

// putEvent returns a popped event to the free list, dropping the payload
// so the callback, message and host it references are released even
// while the struct sits in the pool.
func (s *Scheduler) putEvent(ev *event) {
	ev.payload = payload{}
	if len(s.free) < maxFree {
		s.free = append(s.free, ev)
		s.mFreeLen.Set(int64(len(s.free)))
	}
}

// schedule queues p at the absolute time at (UnixNano, not before now).
func (s *Scheduler) schedule(at int64, p payload) {
	s.events.push(s.getEvent(at, p))
	s.mDepth.Set(int64(len(s.events)))
	s.mDepthMax.SetMax(int64(len(s.events)))
}

// scheduleAfter queues p d from now. Negative d is treated as zero.
func (s *Scheduler) scheduleAfter(d time.Duration, p payload) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now.UnixNano()+int64(d), p)
}

// At schedules fn at the absolute virtual time t. Times in the past run
// at the current time (never rewinding the clock).
func (s *Scheduler) At(t time.Time, fn func()) {
	at := t.UnixNano()
	if now := s.now.UnixNano(); at < now {
		at = now
	}
	s.schedule(at, payload{fn: fn})
}

// After schedules fn d from now. Negative d is treated as zero.
func (s *Scheduler) After(d time.Duration, fn func()) {
	s.scheduleAfter(d, payload{fn: fn})
}

// Every schedules fn at a fixed period, first firing d from now, and
// returns a cancel function. Cancellation is lazy: the pending event
// stays queued but becomes a no-op and stops rechaining — the natural
// pattern for a single-threaded scheduler, and how the sim-time metrics
// sampler hooks its ticks in. d must be positive.
func (s *Scheduler) Every(d time.Duration, fn func()) (cancel func()) {
	if d <= 0 {
		panic("simnet: Every requires a positive period")
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		s.After(d, tick)
	}
	s.After(d, tick)
	return func() { stopped = true }
}

// ctxCheckInterval is how many executed events pass between cancellation
// checks in RunUntilCtx. Long simulations execute millions of events, so
// checking a channel on every pop would be measurable; every 4096 events
// keeps the response to Ctrl-C well under a millisecond of real time.
const ctxCheckInterval = 4096

// RunUntil executes events in order until the queue is empty or the next
// event is after deadline. The clock ends at deadline (or the last event
// time if it ran dry earlier and advanceToDeadline is honored).
func (s *Scheduler) RunUntil(deadline time.Time) {
	_ = s.RunUntilCtx(context.Background(), deadline)
}

// RunUntilCtx is RunUntil with cooperative cancellation: every
// ctxCheckInterval executed events it polls ctx and stops mid-simulation
// with ctx.Err() if the context is done. On cancellation the virtual
// clock is left at the last executed event, not advanced to deadline.
func (s *Scheduler) RunUntilCtx(ctx context.Context, deadline time.Time) error {
	deadlineNS := deadline.UnixNano()
	cancellable := ctx.Done() != nil
	for len(s.events) > 0 && s.events[0].at <= deadlineNS {
		s.step()
		if cancellable && s.count%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	if cancellable {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if s.now.Before(deadline) {
		s.now = deadline
	}
	return nil
}

// RunFor advances the simulation by d.
func (s *Scheduler) RunFor(d time.Duration) {
	s.RunUntil(s.now.Add(d))
}

// RunForCtx advances the simulation by d with cooperative cancellation
// (see RunUntilCtx).
func (s *Scheduler) RunForCtx(ctx context.Context, d time.Duration) error {
	return s.RunUntilCtx(ctx, s.now.Add(d))
}

// Drain executes every queued event regardless of time. Useful only for
// tests on bounded workloads; simulations with self-rescheduling ticks
// must use RunUntil.
func (s *Scheduler) Drain(maxEvents int) {
	for ; len(s.events) > 0 && maxEvents > 0; maxEvents-- {
		s.step()
	}
}

// step pops the earliest event, advances the clock to it and runs it.
// The struct goes back on the free list before its payload runs, so a
// callback that reschedules itself reuses it; the alloc/reused split in
// the deterministic series depends on that order.
func (s *Scheduler) step() {
	ev := s.events.pop()
	s.now = time.Unix(0, ev.at).UTC()
	s.count++
	s.mDepth.Set(int64(len(s.events)))
	s.mExecuted.Inc()
	p := ev.payload
	s.putEvent(ev)
	p.run()
}
