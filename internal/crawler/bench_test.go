package crawler

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"repro/internal/netgen"
	"repro/internal/wire"
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

// BenchmarkCrawlOpenWorld measures the crawl of an address space no
// Index interns, the path every tcpnet crawl takes, without sockets:
// part (a) of the tcp_crawl workload, 8 books of 20,000 distinct
// addresses served in 1,000-address pages to 2 workers.
func BenchmarkCrawlOpenWorld(b *testing.B) {
	const servers, perBook = 8, 20000
	targets := make([]netip.AddrPort, servers)
	known := make(map[netip.AddrPort]struct{}, servers)
	books := make(map[netip.AddrPort][]wire.NetAddress, servers)
	for s := range targets {
		targets[s] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, byte(s + 1)}), 8333)
		known[targets[s]] = struct{}{}
		book := make([]wire.NetAddress, perBook)
		for i := range book {
			n := uint32(s*perBook + i)
			book[i] = na(netip.AddrPortFrom(
				netip.AddrFrom4([4]byte{11, byte(n >> 16), byte(n >> 8), byte(n)}), 8333))
		}
		books[targets[s]] = book
	}
	c := New(Config{Workers: 2}, &fakeDialer{books: books, page: 1000})
	at := time.Unix(1586000000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := c.Crawl(context.Background(), at, targets, known)
		if err != nil {
			b.Fatal(err)
		}
		if len(snap.Unreachable) != servers*perBook {
			b.Fatalf("%d unreachable, want %d", len(snap.Unreachable), servers*perBook)
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
