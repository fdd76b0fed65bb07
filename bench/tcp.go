package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/chain"
	"repro/internal/crawler"
	"repro/internal/node"
	"repro/internal/tcpnet"
	"repro/internal/wire"
)

// spanDialer wraps a crawler.Dialer so a traced crawl pass records a
// span per dial, GETADDR page and close. Untraced passes use the bare
// dialer.
type spanDialer struct {
	inner crawler.Dialer
	spans *spanLog
}

func (d *spanDialer) Dial(addr netip.AddrPort) (crawler.Session, error) {
	id := d.spans.start("tcpnet.dial", -1, 0)
	s, err := d.inner.Dial(addr)
	d.spans.end(id)
	if err != nil {
		return nil, err
	}
	return &spanSession{Session: s, spans: d.spans, parent: id}, nil
}

type spanSession struct {
	crawler.Session
	spans  *spanLog
	parent int
}

func (s *spanSession) GetAddr() ([]wire.NetAddress, error) {
	id := s.spans.start("tcpnet.getaddr_page", s.parent, 0)
	defer s.spans.end(id)
	return s.Session.GetAddr()
}

func (s *spanSession) Close() error {
	id := s.spans.start("tcpnet.close", s.parent, 0)
	defer s.spans.end(id)
	return s.Session.Close()
}

// fabricateBooks makes servers address books of perBook distinct
// "unreachable" addresses each, from the seed alone.
func fabricateBooks(seed int64, servers, perBook int) [][]wire.NetAddress {
	rng := rand.New(rand.NewSource(seed))
	total := servers * perBook
	order := rng.Perm(total)
	offset := rng.Uint32() >> 8 // keeps offset+total inside 11.0.0.0/8 .. 12.255.255.255
	now := time.Now()
	books := make([][]wire.NetAddress, servers)
	for s := range books {
		book := make([]wire.NetAddress, perBook)
		for i := range book {
			var ip [4]byte
			binary.BigEndian.PutUint32(ip[:], 11<<24+offset+uint32(order[s*perBook+i]))
			book[i] = wire.NetAddress{
				Addr:      netip.AddrPortFrom(netip.AddrFrom4(ip), 8333),
				Services:  wire.SFNodeNetwork,
				Timestamp: now,
			}
		}
		books[s] = book
	}
	return books
}

// tcpCrawl is the only workload where wire encode/decode and tcpnet do
// the work. All its traffic crosses the host loopback.
//
// Part (a) drains big address books with the real crawler: large ADDR
// frames. Part (b) runs short connect, handshake, one GETADDR, close
// sessions against a live tcpnet.NodeServer: the smallest messages,
// connection set-up, and nodeserver.go's allocating wire path. The
// NodeServer is not a crawl target because it answers GETADDR once per
// connection: the crawler's second GETADDR would wait out the 5 s
// IOTimeout on every pass. Part (b) therefore issues a single GETADDR.
func tcpCrawl(r *run) error {
	const servers = 8
	perBook, warmups, minSessions := 20000, 5, 200
	if r.cfg.smoke {
		perBook, warmups, minSessions = 500, 0, 20
	}

	// Set-up: fabricate the books, start the listeners.
	books := fabricateBooks(r.cfg.seed, servers, perBook)
	var targets []netip.AddrPort
	known := make(map[netip.AddrPort]struct{}, servers)
	for _, book := range books {
		srv, err := tcpnet.NewServer(tcpnet.ServerConfig{Book: book}, "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Close()
		targets = append(targets, srv.Addr())
		known[srv.Addr()] = struct{}{}
	}
	// The live node only answers: with outbound and feeler slots off it
	// never dials the fabricated addresses it is seeded with.
	live, err := tcpnet.NewNodeServer(node.Config{
		Reachable:   true,
		Genesis:     chain.GenesisBlock("bench-tcp-crawl"),
		SeedAddrs:   books[0][:25],
		MaxOutbound: -1,
		MaxFeelers:  -1,
	}, wire.SimNet, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer live.Close()
	dialer := &tcpnet.Dialer{}
	var crawlDialer crawler.Dialer = dialer
	if r.cfg.trace {
		crawlDialer = &spanDialer{inner: dialer, spans: r.spans}
	}
	c := crawler.New(crawler.Config{Workers: 2}, crawlDialer)
	if only, err := r.ready(); only || err != nil {
		return err
	}

	crawl := func() (*crawler.Snapshot, error) {
		return c.Crawl(context.Background(), time.Now(), targets, known)
	}
	// Warm-up passes fill the codec pools and the listeners' accept
	// paths; they are neither timed nor profiled as reps.
	for i := 0; i < warmups; i++ {
		if _, err := crawl(); err != nil {
			return fmt.Errorf("warm-up pass: %w", err)
		}
	}

	// Part (a): crawl passes for 65 % of the budget.
	want := servers * perBook
	var walls, allocBytes, allocObjects []float64
	passes := 0
	for ; passes < 2 || (!r.cfg.smoke && r.within(0.65)); passes++ {
		win := openAllocWindow()
		id := r.spans.start("crawl.pass", -1, passes)
		snap, err := crawl()
		wall := r.spans.end(id)
		b, n := win.close()
		if err != nil {
			r.op(false, "pass %d: %v", passes, err)
			continue
		}
		// Snapshot.Unreachable is deduplicated by contract; the first pass
		// verifies that, later passes only count.
		distinct := len(snap.Unreachable)
		if len(walls) == 0 {
			set := make(map[netip.AddrPort]struct{}, want)
			for _, a := range snap.Unreachable {
				set[a] = struct{}{}
			}
			distinct = len(set)
		}
		r.op(len(snap.Connected) == servers && distinct == want,
			"pass %d: connected to %d/%d servers, collected %d distinct unreachable addresses, want %d",
			passes, len(snap.Connected), servers, distinct, want)
		walls = append(walls, wall.Seconds())
		allocBytes, allocObjects = append(allocBytes, b), append(allocObjects, n)
		if len(walls) == 1 {
			for _, a := range snap.Unreachable {
				raw, _ := a.MarshalBinary() // cannot fail for a valid AddrPort
				r.digest.Write(raw)
			}
			var rounds, addrs float64
			for _, rep := range snap.Reports {
				rounds += float64(rep.Rounds)
				addrs += float64(rep.TotalSent)
			}
			r.res.Layer.set("crawler.getaddr_rounds", rounds, "count", 0)
			r.res.Layer.set("crawler.addrs_total", addrs, "count", 0)
		}
	}

	// Part (b): sequential sessions for the rest of the budget.
	sessions := 0
	partB := time.Now()
	for ; sessions < minSessions || (!r.cfg.smoke && r.within(1)); sessions++ {
		whole := r.spans.start("tcpnet.session", -1, sessions)
		id := r.spans.start("tcpnet.handshake", whole, sessions)
		sess, err := dialer.Dial(live.Addr())
		r.spans.end(id)
		var addrs []wire.NetAddress
		if err == nil {
			id = r.spans.start("tcpnet.getaddr", whole, sessions)
			addrs, err = sess.GetAddr()
			r.spans.end(id)
			id = r.spans.start("tcpnet.close", whole, sessions)
			if cerr := sess.Close(); err == nil {
				err = cerr
			}
			r.spans.end(id)
		}
		r.spans.end(whole)
		r.op(err == nil && len(addrs) > 0, "session %d: %d addresses: %v", sessions, len(addrs), err)
	}
	partBWall := time.Since(partB).Seconds()
	r.stopProfile()

	m := r.res.Metrics
	m.set("rep_wall_s.p50", median(walls), "s", len(walls))
	m.set("alloc_mib_per_rep", median(allocBytes)/(1<<20), "MiB", len(allocBytes))
	m.set("allocs_per_rep", median(allocObjects), "count", len(allocObjects))
	whole := r.spans.seconds("tcpnet.session")
	m.set("op_ms.p50", 1e3*median(whole), "ms", len(whole))
	m.set("ops_per_s", float64(sessions)/partBWall, "1/s", sessions)
	// The same numbers under the names the two parts are known by.
	m.set("addrs_per_s", float64(want+servers)/median(walls), "addr/s", len(walls))
	m.set("session_ms.p50", 1e3*median(whole), "ms", len(whole))

	l := r.res.Layer
	l.set("tcpnet.sessions", float64((warmups+passes)*servers+sessions), "count", 0)
	if r.cfg.trace {
		hs := r.spans.seconds("tcpnet.handshake")
		l.set("tcpnet.handshake_us", 1e6*median(hs), "us", len(hs))
		pages := r.spans.seconds("tcpnet.getaddr_page")
		l.set("tcpnet.getaddr_page_us", 1e6*median(pages), "us", len(pages))
	}
	r.res.Notes = append(r.res.Notes, fmt.Sprintf(
		"all traffic crosses the host loopback (127.0.0.1): %d passes over %d servers by a 2-worker crawler, then %d sequential sessions",
		passes, servers, sessions))
	return nil
}
