package obs

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sync"
	"time"
)

// Event is one structured trace record. The same type serves fault
// injections, node protocol transitions, and span completions; Kind
// discriminates, Obj names the block or transaction concerned, Detail
// carries free-form context, and Dur is non-zero for span events. Span
// and Parent carry hierarchical span identifiers: Span is this event's
// own span when it opens or closes one, Parent is the enclosing span
// (zero when the event is a root or a plain point event). Propagation
// instrumentation derives both deterministically with SpanKey, so
// same-seed runs produce identical identifier streams.
type Event struct {
	// Time is the (virtual) time of the event.
	Time time.Time
	// Kind labels the event: drop, dup, spike, dial-refuse, partition,
	// heal, crash, restart, dial, handshake, relay.block, relay.tx,
	// deliver.block, deliver.tx, block-download, ….
	Kind string
	// From and To are the endpoints, when applicable.
	From, To netip.AddrPort
	// Obj labels the block or transaction the event is about (zero when
	// it is about none). It is carried as bytes and rendered only at
	// export; every rendering puts its 16 hex characters in front of
	// Detail, and the digest folds its 8 bytes as one word.
	Obj ObjectID
	// Detail carries the message command or extra context.
	Detail string
	// Dur is the span duration for span-completion events (zero for
	// point events).
	Dur time.Duration
	// Span identifies the span this event opens or completes (zero for
	// plain point events).
	Span uint64
	// Parent identifies the enclosing span (zero at the root).
	Parent uint64
}

// DetailString renders the event's detail text: the object label, if
// any, followed by Detail.
func (e *Event) DetailString() string { return e.Obj.String() + e.Detail }

// String renders the event compactly.
func (e Event) String() string {
	s := fmt.Sprintf("%s %s %v->%v %s",
		e.Time.Format("15:04:05.000"), e.Kind, e.From, e.To, e.DetailString())
	if e.Dur != 0 {
		s += fmt.Sprintf(" dur=%v", e.Dur)
	}
	if e.Span != 0 {
		s += fmt.Sprintf(" span=%x", e.Span)
	}
	if e.Parent != 0 {
		s += fmt.Sprintf(" parent=%x", e.Parent)
	}
	return s
}

// FNV-64a parameters, shared by the digest's word fold and SpanKey.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvUint64 folds an integer into an FNV-64a state byte by byte.
func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

// fnvString folds a string into an FNV-64a state.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// fnvAddr folds an address/port into an FNV-64a state byte by byte, as
// SpanKey's identifiers are defined.
func fnvAddr(h uint64, a netip.AddrPort) uint64 {
	b := a.Addr().As16()
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return fnvUint64(h, uint64(a.Port()))
}

// SpanKey derives a deterministic span identifier from an endpoint and an
// object key (typically a block or transaction hash). Instrumented code
// that cannot carry span identifiers across the wire uses SpanKey on both
// sides of a hop: the receiver's delivery span for object k is
// SpanKey(receiver, k), and its parent is SpanKey(sender, k) — the
// sender's own delivery span of the same object. The identifier is a pure
// function of its inputs, so same-seed runs agree without shared state.
func SpanKey(a netip.AddrPort, key []byte) uint64 {
	h := uint64(fnvOffset64)
	h = fnvAddr(h, a)
	for _, c := range key {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	if h == 0 {
		h = fnvPrime64 // zero is the "no span" sentinel
	}
	return h
}

// Tracer is a low-overhead structured event recorder: a fixed-capacity
// ring buffer retaining the most recent events, plus a running digest
// (FNV-1a steps over 64-bit words, see mixLocked) of every event ever
// emitted (eviction does not change the
// digest). Under the simnet virtual clock the scheduler invokes all
// instrumented code in a deterministic order, so a seeded run always
// produces the identical event sequence and digest — the property the
// determinism golden tests compare.
//
// Streaming consumers registered with AddStream see every event before it
// can be evicted, which is how unbounded analyses (PropagationTree,
// NDJSON trace files) coexist with the bounded ring.
//
// The nil tracer discards events, so hot paths emit unconditionally.
// Methods are mutex-guarded for the tcpnet (real socket) backends;
// under simnet the lock is uncontended.
type Tracer struct {
	mu      sync.Mutex
	clock   func() time.Time
	ring    []Event
	start   int // index of the oldest retained event
	n       int // retained events
	total   uint64
	dropped uint64 // events evicted from the ring
	hash    uint64 // running digest
	sinks   []func(*Event)
}

// DefaultTraceCapacity bounds the retained trace when NewTracer is
// given a non-positive capacity.
const DefaultTraceCapacity = 20000

// NewTracer creates a tracer retaining up to capacity events. clock
// supplies event times for Emit calls with a zero Time; nil defaults to
// time.Now (simulations pass the virtual clock).
func NewTracer(capacity int, clock func() time.Time) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	if clock == nil {
		clock = time.Now
	}
	return &Tracer{
		clock: clock,
		ring:  make([]Event, 0, capacity),
		hash:  fnvOffset64,
	}
}

// AddStream registers a synchronous consumer invoked for every event at
// emission time, before ring eviction can lose it. The callback runs
// under the tracer lock — it must be fast and must not call back into
// the tracer — and the event it is handed is the tracer's own ring
// slot: read it, copy it if it must outlive the call, never keep the
// pointer. Streams cannot be removed; attach them for the tracer's
// lifetime (one experiment run).
func (t *Tracer) AddStream(fn func(*Event)) {
	if t == nil || fn == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sinks = append(t.sinks, fn)
}

// Emit records one event, stamping Time from the clock when zero. The
// event is written into its ring slot once; the digest and the streams
// read it there rather than passing the struct on by value.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var slot *Event
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
		slot = &t.ring[len(t.ring)-1]
		t.n++
	} else {
		// Ring full: overwrite the oldest.
		slot = &t.ring[t.start]
		*slot = ev
		t.start = (t.start + 1) % len(t.ring)
		t.dropped++
	}
	if slot.Time.IsZero() {
		slot.Time = t.clock()
	}
	t.total++
	t.mixLocked(slot)
	for _, fn := range t.sinks {
		fn(slot)
	}
}

// mixWord folds one 64-bit word into a digest state: the FNV-1a
// xor-multiply step, taken once per word instead of once per byte.
func mixWord(h, v uint64) uint64 { return (h ^ v) * fnvPrime64 }

// mixAddr folds an address/port as three words: the 16-byte form's two
// halves and the port.
func mixAddr(h uint64, a netip.AddrPort) uint64 {
	b := a.Addr().As16()
	h = mixWord(h, binary.BigEndian.Uint64(b[:8]))
	h = mixWord(h, binary.BigEndian.Uint64(b[8:]))
	return mixWord(h, uint64(a.Port()))
}

// mixLocked folds ev into the running digest: one xor-multiply step per
// numeric word and per string byte. The tracer is on the relay hot path
// of multi-hour simulations, so this must not allocate or format, and the
// step count is its cost. Each step is a bijection of the state, so
// changing any one word changes the event hash; an unset Obj folds
// nothing. A multiply carries a difference only towards the high bits,
// so the event hash is xor-shifted once before it joins the chain, where
// the low bits it reaches are carried up again by the next event.
func (t *Tracer) mixLocked(ev *Event) {
	h := uint64(fnvOffset64)
	h = mixWord(h, uint64(ev.Time.UnixNano()))
	h = fnvString(h, ev.Kind)
	h = mixAddr(h, ev.From)
	h = mixAddr(h, ev.To)
	if ev.Obj.set {
		h = mixWord(h, binary.BigEndian.Uint64(ev.Obj.prefix[:]))
	}
	h = fnvString(h, ev.Detail)
	h = mixWord(h, uint64(ev.Dur))
	h = mixWord(h, ev.Span)
	h = mixWord(h, ev.Parent)
	h ^= h >> 32
	// Chain the per-event hash into the running digest so order matters.
	t.hash = (t.hash ^ h) * fnvPrime64
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(t.start+i)%len(t.ring)])
	}
	return out
}

// Total returns the number of events ever emitted (including evicted
// ones).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many events the ring has evicted. Two runs can
// share a digest yet differ here only if their ring capacities differ,
// so snapshots that publish it (see Publish) let trace comparisons
// distinguish "identical" from "identically truncated".
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Publish surfaces the tracer's lifetime counters as registry gauges
// (obs.trace.total, obs.trace.dropped), so metric snapshots record not
// just what the ring retained but how much it evicted.
func (t *Tracer) Publish(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	t.mu.Lock()
	total, dropped := t.total, t.dropped
	t.mu.Unlock()
	reg.Gauge("obs.trace.total").Set(int64(total))
	reg.Gauge("obs.trace.dropped").Set(int64(dropped))
}

// Digest returns a hex digest over every event ever emitted, in order.
// Same-seed deterministic runs produce identical digests; the ring
// capacity does not affect it.
func (t *Tracer) Digest() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprintf("%016x", t.hash)
}
