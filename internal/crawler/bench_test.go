package crawler

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"repro/internal/netgen"
)

// benchUniverse generates the benchmark universe at the guard scale.
func benchUniverse(b *testing.B, seed int64) *netgen.Universe {
	b.Helper()
	u, err := netgen.Generate(netgen.DefaultParams(seed, 0.02))
	if err != nil {
		b.Fatal(err)
	}
	return u
}

// BenchmarkCrawlSnapshot measures one full Algorithm 1 crawl over a
// small synthetic universe, with the dense index and default fan-out —
// the hot path of the longitudinal study. Like the study it never crawls
// one instant twice in a row: iteration i crawls the i-mod-k-th of k
// consecutive crawl instants, whose inputs are prepared before the timer
// starts.
func BenchmarkCrawlSnapshot(b *testing.B) {
	u := benchUniverse(b, 55)
	type instant struct {
		at      time.Time
		targets []netip.AddrPort
		known   map[netip.AddrPort]struct{}
	}
	instants := make([]instant, 8)
	for k := range instants {
		at := u.Params.Epoch.Add(10*24*time.Hour + time.Duration(k)*u.Params.CrawlInterval)
		seedView := u.SeedViewAt(at)
		instants[k] = instant{at, TargetsOf(seedView), ReachableReference(seedView)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := instants[i%len(instants)]
		view := NewUniverseView(u, in.at)
		c := New(Config{Index: u.Index}, view)
		if _, err := c.Crawl(context.Background(), in.at, in.targets, in.known); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScan measures the Algorithm 2 probe sweep.
func BenchmarkScan(b *testing.B) {
	u := benchUniverse(b, 56)
	at := u.Params.Epoch.Add(10 * 24 * time.Hour)
	view := NewUniverseView(u, at)
	var targets []netip.AddrPort
	for _, s := range u.Unreachable {
		if s.VisibleAt(at) {
			targets = append(targets, s.Addr)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Scan(at, view, targets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUniverseView measures freezing a universe instant (the
// per-experiment pool scan every crawl and scan starts from).
func BenchmarkUniverseView(b *testing.B) {
	u := benchUniverse(b, 57)
	at := u.Params.Epoch.Add(10 * 24 * time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view := NewUniverseView(u, at)
		if len(view.online) == 0 {
			b.Fatal("empty view")
		}
	}
}
