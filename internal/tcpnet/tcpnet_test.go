package tcpnet

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/wire"
)

// mkBook builds n synthetic book addresses.
func mkBook(n int) []wire.NetAddress {
	out := make([]wire.NetAddress, n)
	for i := range out {
		out[i] = wire.NetAddress{
			Addr: netip.AddrPortFrom(
				netip.AddrFrom4([4]byte{172, 16, byte(i >> 8), byte(i)}), 8333),
			Services:  wire.SFNodeNetwork,
			Timestamp: time.Now(),
		}
	}
	return out
}

func newTestServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	s, err := NewServer(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Logf("server close: %v", err)
		}
	})
	return s
}

func TestDialAndGetAddrOverTCP(t *testing.T) {
	book := mkBook(50)
	srv := newTestServer(t, ServerConfig{Book: book})
	d := &Dialer{}
	sess, err := d.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sess.Close() }()
	addrs, err := sess.GetAddr()
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) == 0 {
		t.Fatal("empty ADDR response")
	}
	// The first address must be the server's self-advertisement.
	if addrs[0].Addr != srv.Addr() {
		t.Errorf("first addr = %v, want self %v", addrs[0].Addr, srv.Addr())
	}
}

func TestCrawlOverRealTCP(t *testing.T) {
	// Full Algorithm 1 over loopback: the crawler must drain the whole
	// book through multiple GETADDR rounds.
	book := mkBook(60)
	srv := newTestServer(t, ServerConfig{Book: book})
	c := crawler.New(crawler.Config{}, &Dialer{})
	known := map[netip.AddrPort]struct{}{srv.Addr(): {}}
	snap, err := c.Crawl(context.Background(), time.Now(), []netip.AddrPort{srv.Addr()}, known)
	if err != nil {
		t.Fatal(err)
	}
	rep := snap.Reports[srv.Addr()]
	if rep == nil || !rep.Connected {
		t.Fatal("crawler did not connect")
	}
	if !rep.SentOwnAddr {
		t.Error("self-advertisement missing")
	}
	if rep.Rounds < 2 {
		t.Errorf("rounds = %d; the book should need several pages", rep.Rounds)
	}
	// The full book must be collected as unreachable (none of it is in
	// the known set).
	if len(snap.Unreachable) != len(book) {
		t.Errorf("collected %d unreachable, want %d", len(snap.Unreachable), len(book))
	}
}

func TestMaliciousServerDetectedOverTCP(t *testing.T) {
	book := mkBook(40)
	evil := newTestServer(t, ServerConfig{Book: book, OmitSelf: true})
	honest := newTestServer(t, ServerConfig{Book: mkBook(10)})
	c := crawler.New(crawler.Config{}, &Dialer{})
	known := map[netip.AddrPort]struct{}{
		evil.Addr():   {},
		honest.Addr(): {},
	}
	snap, err := c.Crawl(context.Background(), time.Now(),
		[]netip.AddrPort{evil.Addr(), honest.Addr()}, known)
	if err != nil {
		t.Fatal(err)
	}
	suspects := snap.SuspectedMalicious(5)
	if len(suspects) != 1 || suspects[0].Addr != evil.Addr() {
		t.Fatalf("suspects = %+v, want exactly the malicious server", suspects)
	}
}

func TestProbeReachableServer(t *testing.T) {
	srv := newTestServer(t, ServerConfig{Book: mkBook(5)})
	p := &Prober{}
	outcome, err := p.Probe(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if outcome != crawler.ProbeReachable {
		t.Errorf("probe = %v, want reachable", outcome)
	}
}

func TestProbeResponsiveStub(t *testing.T) {
	stub, err := NewResponsiveStub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stub.Close() }()
	p := &Prober{}
	outcome, err := p.Probe(stub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if outcome != crawler.ProbeResponsive {
		t.Errorf("probe = %v, want responsive", outcome)
	}
}

func TestProbeClosedPort(t *testing.T) {
	// Bind a listener to learn a free port, close it, then probe: the
	// kernel answers RST, which maps to responsive per the Scapy
	// semantics (an active refusal).
	stub, err := NewResponsiveStub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := stub.Addr()
	if err := stub.Close(); err != nil {
		t.Fatal(err)
	}
	p := &Prober{}
	outcome, err := p.Probe(addr)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != crawler.ProbeResponsive {
		t.Errorf("probe of closed port = %v, want responsive (RST)", outcome)
	}
}

func TestDialFailsOnDeadEndpoint(t *testing.T) {
	stub, err := NewResponsiveStub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := stub.Addr()
	if err := stub.Close(); err != nil {
		t.Fatal(err)
	}
	d := &Dialer{DialTimeout: 500 * time.Millisecond}
	if _, err := d.Dial(addr); err == nil {
		t.Error("dial to dead endpoint succeeded")
	}
}

func TestDialToResponsiveStubFailsHandshake(t *testing.T) {
	stub, err := NewResponsiveStub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stub.Close() }()
	d := &Dialer{IOTimeout: time.Second}
	if _, err := d.Dial(stub.Addr()); err == nil {
		t.Error("handshake with a responsive stub should fail")
	}
}

func TestServerPingPong(t *testing.T) {
	srv := newTestServer(t, ServerConfig{Book: mkBook(3)})
	d := &Dialer{}
	sess, err := d.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sess.Close() }()
	ts := sess.(*tcpSession)
	ts.deadline()
	if _, err := new(wire.Encoder).WriteMessage(ts.conn, &wire.MsgPing{Nonce: 99}, ts.net); err != nil {
		t.Fatal(err)
	}
	for {
		ts.deadline()
		msg, err := wire.ReadMessage(ts.conn, ts.net)
		if err != nil {
			t.Fatal(err)
		}
		if pong, ok := msg.(*wire.MsgPong); ok {
			if pong.Nonce != 99 {
				t.Errorf("pong nonce = %d, want 99", pong.Nonce)
			}
			return
		}
	}
}

func TestEndToEndScanMixedPopulation(t *testing.T) {
	// A miniature end-to-end study over loopback: one reachable server,
	// two responsive stubs, one dead address.
	srv := newTestServer(t, ServerConfig{Book: mkBook(8)})
	stub1, err := NewResponsiveStub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stub1.Close() }()
	stub2, err := NewResponsiveStub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stub2.Close() }()
	deadStub, err := NewResponsiveStub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := deadStub.Addr()
	if err := deadStub.Close(); err != nil {
		t.Fatal(err)
	}

	targets := []netip.AddrPort{srv.Addr(), stub1.Addr(), stub2.Addr(), dead}
	res, err := crawler.Scan(time.Now(), &Prober{}, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responsive) != 3 {
		// dead port answers RST → also "responsive" per Scapy semantics;
		// genuinely silent requires a firewall DROP, which loopback
		// cannot fake.
		t.Errorf("responsive = %d (%v), want 3", len(res.Responsive), res.Responsive)
	}
	if len(res.ReachableSurprises) != 1 {
		t.Errorf("reachable = %d, want 1", len(res.ReachableSurprises))
	}
}

func TestSessionRemote(t *testing.T) {
	srv := newTestServer(t, ServerConfig{Book: mkBook(3)})
	d := &Dialer{}
	sess, err := d.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sess.Close() }()
	if sess.Remote() != srv.Addr() {
		t.Errorf("Remote = %v, want %v", sess.Remote(), srv.Addr())
	}
}

func TestProbeUnroutable(t *testing.T) {
	// TEST-NET-3 (RFC 5737) is unroutable: the probe must classify it as
	// silent (or at worst responsive on an odd network), never error.
	p := &Prober{DialTimeout: 300 * time.Millisecond}
	ap := netip.AddrPortFrom(netip.MustParseAddr("203.0.113.254"), 8333)
	outcome, err := p.Probe(ap)
	if err != nil {
		t.Fatalf("probe errored: %v", err)
	}
	if outcome != crawler.ProbeSilent && outcome != crawler.ProbeResponsive {
		t.Errorf("unroutable probe = %v", outcome)
	}
}
