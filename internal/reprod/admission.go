package reprod

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/obs"
)

// ErrShed is returned by Admission.Acquire when the waiting queue is
// full: the request is rejected immediately (HTTP 429 + Retry-After)
// instead of piling up an unbounded goroutine backlog.
var ErrShed = errors.New("reprod: admission queue full")

// Admission is a bounded two-stage gate in front of the run engine: at
// most maxActive runs execute concurrently, at most maxQueue admitted
// requests wait for an execution slot, and everything beyond that is
// shed explicitly. The gate is the service's overload valve — under
// flood the server's memory use stays proportional to
// maxActive + maxQueue, never to the offered load.
type Admission struct {
	maxQueue int64
	tokens   chan struct{}
	waiting  atomic.Int64

	queueDepth *obs.Gauge
	active     *obs.Gauge
	shed       *obs.Counter
}

// NewAdmission builds a gate with the given limits (maxActive < 1 is
// raised to 1; maxQueue < 0 is treated as 0, i.e. shed whenever all
// slots are busy). reg, when non-nil, receives reprod.queue.depth,
// reprod.runs.active, and reprod.shed.total.
func NewAdmission(maxActive, maxQueue int, reg *obs.Registry) *Admission {
	if maxActive < 1 {
		maxActive = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Admission{
		maxQueue:   int64(maxQueue),
		tokens:     make(chan struct{}, maxActive),
		queueDepth: reg.Gauge("reprod.queue.depth"),
		active:     reg.Gauge("reprod.runs.active"),
		shed:       reg.Counter("reprod.shed.total"),
	}
}

// Acquire claims an execution slot, waiting in the bounded queue when
// all slots are busy. It returns a release function on success; ErrShed
// when the queue is already full (the caller should reply 429); or
// ctx.Err() when the caller gave up (disconnect, deadline, drain)
// before a slot freed. release must be called exactly once.
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	// Fast path: a slot is free right now, no queueing involved.
	select {
	case a.tokens <- struct{}{}:
		return a.claimed(), nil
	default:
	}

	// Slow path: all slots busy — join the bounded queue or shed. The
	// atomic counter caps the waiter population exactly at maxQueue,
	// whatever the arrival concurrency.
	if a.waiting.Add(1) > a.maxQueue {
		a.waiting.Add(-1)
		a.shed.Inc()
		return nil, ErrShed
	}
	a.queueDepth.Set(a.waiting.Load())
	defer func() {
		a.waiting.Add(-1)
		a.queueDepth.Set(a.waiting.Load())
	}()

	select {
	case a.tokens <- struct{}{}:
		return a.claimed(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// claimed finalises a successful token grab, returning the idempotent
// release function.
func (a *Admission) claimed() func() {
	a.active.Add(1)
	var released atomic.Bool
	return func() {
		if released.Swap(true) {
			return
		}
		a.active.Add(-1)
		<-a.tokens
	}
}
