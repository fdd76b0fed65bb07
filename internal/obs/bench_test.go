package obs

import (
	"testing"
	"time"
)

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) % int64(20*time.Second))
	}
}

func BenchmarkRegistrySnapshot(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 64; i++ {
		r.Counter(counterName(i)).Add(int64(i))
	}
	r.Histogram("lat").Observe(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}

func counterName(i int) string {
	const names = "abcdefghijklmnopqrstuvwxyz"
	return "c." + string(names[i%26]) + string(names[(i/26)%26])
}

func BenchmarkTracerEmit(b *testing.B) {
	tr := NewTracer(DefaultTraceCapacity, virtualClock())
	ev := Event{Kind: "relay", From: addrPort(1), To: addrPort(2), Detail: "block"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(ev)
	}
}

// BenchmarkSamplerTick is the per-sample cost the scheduler pays on
// every sampling interval: one snapshot plus ring pushes over a
// registry sized like a mid-size simulation.
func BenchmarkSamplerTick(b *testing.B) {
	reg := NewRegistry()
	for i := 0; i < 48; i++ {
		reg.Counter(counterName(i)).Add(int64(i))
	}
	reg.Gauge("sched.depth").Set(17)
	h := reg.Histogram("relay.delay")
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * int64(time.Millisecond))
	}
	s := NewSampler(reg, DefaultSeriesCapacity)
	now := time.Unix(1585958400, 0).UTC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(2 * time.Minute)
		s.Tick(now)
	}
}

// BenchmarkSpanEmit is the cost of one deliver event as the node pays it:
// two SpanKey derivations (its own span and the sender's) plus a traced
// emit. The relay path derives no key — its entry carries the delivery
// span — so a relay hop costs what BenchmarkTracerEmit measures.
func BenchmarkSpanEmit(b *testing.B) {
	tr := NewTracer(DefaultTraceCapacity, virtualClock())
	self, peer := addrPort(1), addrPort(2)
	hash := []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04,
		0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c,
		0x0d, 0x0e, 0x0f, 0x10, 0x11, 0x12, 0x13, 0x14,
		0x15, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x1b, 0x1c}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{
			Kind: KindDeliverBlock, From: peer, To: self, Detail: "deadbeef01020304",
			Span:   SpanKey(self, hash),
			Parent: SpanKey(peer, hash),
		})
	}
}
