package crawler

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"repro/internal/addridx"
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
		at := u.Params.Epoch.Add(10*24*time.Hour + time.Duration(k)*netgen.CrawlInterval)
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

// BenchmarkScan measures the Algorithm 2 probe sweep of every
// gossip-visible address, passing the targets' IDs as the study does.
func BenchmarkScan(b *testing.B) {
	u := benchUniverse(b, 56)
	at := u.Params.Epoch.Add(10 * 24 * time.Hour)
	view := NewUniverseView(u, at)
	var targets []netip.AddrPort
	var ids []addridx.ID
	for _, s := range u.Unreachable {
		if s.VisibleAt(at) {
			targets = append(targets, s.Addr)
			ids = append(ids, s.ID)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScanWith(context.Background(), ScanConfig{Workers: 1, IDs: ids}, at, view, targets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUniverseView measures freezing a universe instant: the
// per-experiment pool scan every crawl and scan starts from. It cycles
// over the study's 60 crawl instants, so no iteration finds its instant
// in the one-instant pool memo.
func BenchmarkUniverseView(b *testing.B) {
	u := benchUniverse(b, 57)
	instants := make([]time.Time, netgen.Horizon/netgen.CrawlInterval)
	for k := range instants {
		instants[k] = u.Params.Epoch.Add(time.Duration(k) * netgen.CrawlInterval)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view := NewUniverseView(u, instants[i%len(instants)])
		if len(view.online) == 0 {
			b.Fatal("empty view")
		}
	}
}

// BenchmarkUniverseViewProbeID measures one scanner probe of a warm
// view by station ID, cycling over every station of the universe.
func BenchmarkUniverseViewProbeID(b *testing.B) {
	u := benchUniverse(b, 59)
	view := NewUniverseView(u, u.Params.Epoch.Add(10*24*time.Hour))
	n := u.Index.Len()
	responsive := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := view.ProbeID(addridx.ID(i % n))
		if err != nil {
			b.Fatal(err)
		}
		if o == ProbeResponsive {
			responsive++
		}
	}
	if b.N >= n && responsive == 0 {
		b.Fatal("no station probed responsive")
	}
}

// BenchmarkUniverseViewDial measures one popsim dial of a warm view:
// dial an online reachable station, drain it through GetAddrIDs until a
// page adds nothing, close it. It cycles over the stations whose dial
// succeeds, listed before the timer starts. A warm dial reseeds the
// pooled session's generators and refills its buffers in place, so it
// allocates nothing.
func BenchmarkUniverseViewDial(b *testing.B) {
	u := benchUniverse(b, 58)
	at := u.Params.Epoch.Add(10 * 24 * time.Hour)
	view := NewUniverseView(u, at)
	var stations []netip.AddrPort
	for _, id := range view.online {
		addr := u.Index.Addr(id)
		if sess, err := view.Dial(addr); err == nil {
			sess.Close()
			stations = append(stations, addr)
		}
	}
	if len(stations) == 0 {
		b.Fatal("no station accepts a dial")
	}
	seen := &idScratch{epochs: make([]uint32, u.Index.Len()), epoch: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := view.Dial(stations[i%len(stations)])
		if err != nil {
			b.Fatal(err)
		}
		for fresh := true; fresh; {
			ids, err := sess.(SessionWithIDs).GetAddrIDs()
			if err != nil {
				b.Fatal(err)
			}
			fresh = false
			for _, id := range ids {
				if seen.epochs[id] != seen.epoch {
					seen.epochs[id] = seen.epoch
					fresh = true
				}
			}
		}
		sess.Close()
		seen.epoch++
	}
}
