package reprod

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// call is one in-flight execution of a spec key. Every handler serving
// that key — the leader that created it and any followers that joined —
// waits on done and then reads the immutable result fields. waiters
// counts the clients still interested; when the last one leaves before
// the run finishes, cancel fires and the execution stops, so a run
// whose every client disconnected never burns a slot to completion
// (unless it already finished, in which case the result is cached
// anyway).
type call struct {
	done   chan struct{}
	ctx    context.Context
	cancel context.CancelFunc

	waiters  atomic.Int64
	finished atomic.Bool

	// progress fans trace events out to streaming subscribers.
	progress *progressHub
	// tracer is the run's live progress tracer (core.Runner.Trace).
	tracer *obs.Tracer

	// Results, valid after done closes.
	bundle *Bundle
	err    error
}

// join registers one interested client. The returned leave function
// must be called when the client stops waiting (served, disconnected,
// or timed out); the last leaver of an unfinished call cancels the run.
func (c *call) join() (leave func()) {
	c.waiters.Add(1)
	var left atomic.Bool
	return func() {
		if left.Swap(true) {
			return
		}
		if c.waiters.Add(-1) == 0 && !c.finished.Load() {
			c.cancel()
		}
	}
}

// finish publishes the result and wakes every waiter.
func (c *call) finish(b *Bundle, err error) {
	c.bundle = b
	c.err = err
	c.finished.Store(true)
	close(c.done)
}

// flightGroup deduplicates concurrent executions by key: the first
// request for a key becomes the leader and executes; requests arriving
// while it runs join the same call and receive the identical result.
// This is the singleflight half of the millions-of-users story — a
// thundering herd of identical specs costs one run.
type flightGroup struct {
	mu     sync.Mutex
	flight map[string]*call
	joined *obs.Counter
}

func newFlightGroup(reg *obs.Registry) *flightGroup {
	return &flightGroup{
		flight: make(map[string]*call),
		joined: reg.Counter("reprod.singleflight.joined"),
	}
}

// get returns the call for key, creating it (leader == true) when no
// execution is in flight. newCall constructs the call under the group
// lock so two leaders can never race for one key.
func (g *flightGroup) get(key string, newCall func() *call) (c *call, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.flight[key]; ok {
		g.joined.Inc()
		return c, false
	}
	c = newCall()
	g.flight[key] = c
	return c, true
}

// forget removes a completed call so future requests go back through
// the cache (hits) or start a fresh execution (e.g. after a failure).
func (g *flightGroup) forget(key string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.flight, key)
}

// progressHub broadcasts trace events to a dynamic set of subscribers.
// Publishing never blocks: a subscriber that cannot keep up has events
// dropped (counted per hub), mirroring the bounded-ring overload policy
// of the tracer itself — a slow streaming client cannot stall the run.
type progressHub struct {
	mu      sync.Mutex
	nextID  int
	subs    map[int]chan obs.Event
	dropped *obs.Counter
}

func newProgressHub(dropped *obs.Counter) *progressHub {
	return &progressHub{subs: make(map[int]chan obs.Event), dropped: dropped}
}

// publish fans one event out, dropping per-subscriber on overflow.
func (h *progressHub) publish(ev *obs.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ch := range h.subs {
		select {
		case ch <- *ev:
		default:
			h.dropped.Inc()
		}
	}
}

// subscribe registers a buffered event channel; unsubscribe via the
// returned function (safe to call once the subscriber stops reading).
func (h *progressHub) subscribe() (<-chan obs.Event, func()) {
	ch := make(chan obs.Event, 256)
	h.mu.Lock()
	id := h.nextID
	h.nextID++
	h.subs[id] = ch
	h.mu.Unlock()
	return ch, func() {
		h.mu.Lock()
		delete(h.subs, id)
		h.mu.Unlock()
	}
}
