package node

import (
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// eventRecorder collects emitted events by type for assertions.
type eventRecorder struct{ events []Event }

func (r *eventRecorder) OnEvent(ev Event) { r.events = append(r.events, ev) }

func (r *eventRecorder) count(t EventType) int {
	n := 0
	for _, ev := range r.events {
		if ev.Type == t {
			n++
		}
	}
	return n
}

func (r *eventRecorder) first(t EventType) (Event, bool) {
	for _, ev := range r.events {
		if ev.Type == t {
			return ev, true
		}
	}
	return Event{}, false
}

func TestKeepalivePingOnIdlePeer(t *testing.T) {
	env := newFakeEnv()
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.Metrics = obs.NewRegistry()
	n := New(cfg, env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)

	env.run(3 * time.Minute)
	var ping *wire.MsgPing
	for _, msg := range env.transmitsTo(1) {
		if m, ok := msg.(*wire.MsgPing); ok {
			ping = m
		}
	}
	if ping == nil {
		t.Fatal("no keepalive PING sent to a peer idle past PingInterval")
	}
	if cfg.Metrics.Counter("node.ping.sent").Value() == 0 {
		t.Error("keepalive ping not counted")
	}

	// A matching PONG clears the outstanding ping and keeps the peer.
	n.OnMessage(1, &wire.MsgPong{Nonce: ping.Nonce})
	env.run(5 * time.Second)
	p := n.peerByConn(1)
	if p == nil {
		t.Fatal("peer evicted despite answering the keepalive")
	}
	if p.pingNonce != 0 {
		t.Error("outstanding ping not cleared by matching PONG")
	}
}

func TestSilentPeerEvictedAtStallTimeout(t *testing.T) {
	env := newFakeEnv()
	rec := &eventRecorder{}
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.Sink = rec.OnEvent
	cfg.Metrics = obs.NewRegistry()
	n := New(cfg, env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)

	// The peer never answers the keepalive: idle 2 min → PING, silent
	// 20 more minutes → evicted.
	env.run(25 * time.Minute)
	if n.peerByConn(1) != nil {
		t.Fatal("silent peer still connected after stall timeout")
	}
	if rec.count(EvPeerStalled) != 1 {
		t.Errorf("EvPeerStalled count = %d, want 1", rec.count(EvPeerStalled))
	}
	if got := cfg.Metrics.Counter("node.evict.stall").Value(); got != 1 {
		t.Errorf("node.evict.stall = %d, want 1", got)
	}
}

func TestHandshakeTimeoutEvictsMutePeer(t *testing.T) {
	env := newFakeEnv()
	rec := &eventRecorder{}
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.Sink = rec.OnEvent
	cfg.Metrics = obs.NewRegistry()
	n := New(cfg, env)
	n.Start()
	// The peer connects and never sends VERSION (a black-hole peer).
	if !n.OnInbound(mkAddr(10, 0, 0, 9), 7) {
		t.Fatal("inbound refused")
	}
	env.run(2 * time.Minute)
	if n.peerByConn(7) != nil {
		t.Fatal("mute peer still connected past the handshake timeout")
	}
	if rec.count(EvHandshakeTimeout) != 1 {
		t.Errorf("EvHandshakeTimeout count = %d, want 1", rec.count(EvHandshakeTimeout))
	}
	if got := cfg.Metrics.Counter("node.evict.handshake").Value(); got != 1 {
		t.Errorf("node.evict.handshake = %d, want 1", got)
	}
}

// startStalledDownload handshakes two peers claiming height 5, then has
// peer 1 announce a header whose body it will never deliver; the node's
// request to peer 1 sits in blocksInFlight.
func startStalledDownload(t *testing.T, n *Node, env *fakeEnv) {
	t.Helper()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 5)
	completeHandshake(t, n, env, 2, mkAddr(10, 0, 0, 3), 5)
	hdr := wire.BlockHeader{
		Version:   4,
		PrevBlock: testGenesis.BlockHash(),
		Timestamp: uint32(env.Now().Unix()),
		Bits:      0x207fffff,
	}
	n.OnMessage(1, &wire.MsgHeaders{Headers: []wire.BlockHeader{hdr}})
	env.run(5 * time.Second)
	if len(n.blocksInFlight) != 1 {
		t.Fatalf("blocksInFlight = %d, want 1", len(n.blocksInFlight))
	}
}

func TestDisconnectMidIBDClearsInFlightAndResyncs(t *testing.T) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	startStalledDownload(t, n, env)
	before := countGetHeaders(env, 2)

	// Peer 1 drops mid-IBD: its in-flight block must be forgotten and the
	// header sync restarted from peer 2, which is still ahead.
	n.OnDisconnect(1)
	env.run(5 * time.Second)
	if len(n.blocksInFlight) != 0 {
		t.Errorf("blocksInFlight = %d after disconnect, want 0", len(n.blocksInFlight))
	}
	if got := countGetHeaders(env, 2); got != before+1 {
		t.Errorf("GETHEADERS to surviving peer = %d, want %d (resync)", got, before+1)
	}
}

func TestBlockStallEvictsPeerAndResyncs(t *testing.T) {
	env := newFakeEnv()
	rec := &eventRecorder{}
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.Sink = rec.OnEvent
	cfg.Metrics = obs.NewRegistry()
	n := New(cfg, env)
	n.Start()
	startStalledDownload(t, n, env)
	before := countGetHeaders(env, 2)

	// Peer 1 sits on the requested block: after BlockStallTimeout the
	// stall detector evicts it and restarts sync from peer 2.
	env.run(3 * time.Minute)
	if n.peerByConn(1) != nil {
		t.Fatal("stalling peer still connected past the block-stall timeout")
	}
	ev, ok := rec.first(EvBlockStalled)
	if !ok {
		t.Fatal("no EvBlockStalled emitted")
	}
	if ev.Conn != 1 {
		t.Errorf("EvBlockStalled.Conn = %d, want 1", ev.Conn)
	}
	if len(n.blocksInFlight) != 0 {
		t.Errorf("blocksInFlight = %d after eviction, want 0", len(n.blocksInFlight))
	}
	if got := countGetHeaders(env, 2); got != before+1 {
		t.Errorf("GETHEADERS to surviving peer = %d, want %d (resync)", got, before+1)
	}
	if got := cfg.Metrics.Counter("node.evict.blockstall").Value(); got != 1 {
		t.Errorf("node.evict.blockstall = %d, want 1", got)
	}
}

func TestDialResultAfterStopClosesConnection(t *testing.T) {
	env := newFakeEnv()
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.SeedAddrs = []wire.NetAddress{{Addr: mkAddr(10, 0, 0, 2), Timestamp: env.Now()}}
	n := New(cfg, env)
	n.Start()
	env.run(3 * time.Second)
	if len(env.dials) == 0 {
		t.Fatal("node never dialed")
	}
	n.Stop()
	// The dial completes after Stop: the node must close the connection
	// rather than adopt it.
	n.OnDialResult(env.dials[0], 42, nil)
	found := false
	for _, c := range env.closed {
		if c == 42 {
			found = true
		}
	}
	if !found {
		t.Error("connection delivered after Stop was not closed")
	}
	if len(n.slotOf) != 0 {
		t.Errorf("peers = %d after Stop, want 0", len(n.slotOf))
	}
}

func TestDialFailureArmsBackoff(t *testing.T) {
	env := newFakeEnv()
	rec := &eventRecorder{}
	remote := mkAddr(10, 0, 0, 2)
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.Sink = rec.OnEvent
	cfg.SeedAddrs = []wire.NetAddress{{Addr: remote, Timestamp: env.Now()}}
	cfg.MaxFeelers = -1
	n := New(cfg, env)
	n.Start()
	env.run(2 * time.Second)
	if len(env.dials) != 1 {
		t.Fatalf("dials = %d, want 1", len(env.dials))
	}
	n.OnDialResult(remote, 0, errors.New("refused"))

	if !n.inBackoff(remote) {
		t.Fatal("failed dial did not arm the backoff")
	}
	ev, ok := rec.first(EvDialBackoff)
	if !ok {
		t.Fatal("no EvDialBackoff emitted")
	}
	// dialBackoffBase×2^0 jittered ±50%: the window is [5s, 15s).
	if ev.Delay < dialBackoffBase/2 || ev.Delay >= dialBackoffBase*3/2 {
		t.Errorf("backoff delay = %v, want within [5s, 15s)", ev.Delay)
	}
	if ev.Count != 1 {
		t.Errorf("backoff failure count = %d, want 1", ev.Count)
	}

	// Inside the window the address must not be redialed...
	env.run(4 * time.Second)
	if len(env.dials) != 1 {
		t.Fatalf("address redialed inside its backoff window (%d dials)", len(env.dials))
	}
	// ...and once it expires, the maintenance loop tries again.
	env.run(3 * time.Minute)
	if len(env.dials) < 2 {
		t.Error("address never redialed after backoff expiry")
	}

	// A successful dial clears the state entirely.
	n.OnDialResult(remote, 9, nil)
	if len(n.backoff) != 0 {
		t.Errorf("backoff entries = %d after success, want 0", len(n.backoff))
	}
}

func TestBackoffEscalatesWithConsecutiveFailures(t *testing.T) {
	env := newFakeEnv()
	rec := &eventRecorder{}
	remote := mkAddr(10, 0, 0, 2)
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.Sink = rec.OnEvent
	cfg.Metrics = obs.NewRegistry()
	n := New(cfg, env)
	n.Start()
	const failures = 8
	for i := 0; i < failures; i++ {
		n.dialing[remote] = Outbound
		n.OnDialResult(remote, 0, errors.New("refused"))
	}
	var delays []time.Duration
	for _, ev := range rec.events {
		if ev.Type == EvDialBackoff {
			delays = append(delays, ev.Delay)
		}
	}
	if len(delays) != failures {
		t.Fatalf("backoff events = %d, want %d", len(delays), failures)
	}
	// Failure i+1 has pre-jitter delay min(10s×2^i, 10m); jitter keeps it
	// within [d/2, 3d/2). The seventh failure (640 s) is the first the cap
	// holds back.
	for i, got := range delays {
		d := dialBackoffBase << uint(i)
		if d > dialBackoffMax {
			d = dialBackoffMax
		}
		if got < d/2 || got >= d*3/2 {
			t.Errorf("backoff %d = %v, want within [%v, %v)", i+1, got, d/2, d*3/2)
		}
	}
	if got := cfg.Metrics.Counter("node.backoff.armed").Value(); got != failures {
		t.Errorf("node.backoff.armed = %d, want %d", got, failures)
	}
}
