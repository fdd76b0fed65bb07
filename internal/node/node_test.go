package node

import (
	"container/heap"
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/chainhash"
	"repro/internal/obs"
	"repro/internal/wire"
)

// fakeEnv is a minimal deterministic Env for driving a single node in
// isolation. It records dials and transmissions and executes scheduled
// callbacks from a tiny event loop.
type fakeEnv struct {
	now time.Time
	rng *rand.Rand

	dials     []netip.AddrPort
	transmits []transmitRec
	closed    []ConnID

	// discard stops Transmit from recording messages; recycle, when also
	// set, receives each transmitted message instead. Benchmarks use the
	// pair to model an environment that fully consumes messages at
	// Transmit time (the node.RecycleOutbound contract, which recycles
	// PONGs) so the ping-pong steady state allocates nothing.
	discard bool
	recycle func(wire.Message)

	q    fakeHeap
	free []*fakeEvent
	seq  uint64
}

type transmitRec struct {
	conn  ConnID
	msg   wire.Message
	delay time.Duration
	at    time.Time
}

type fakeEvent struct {
	at  time.Time
	seq uint64
	fn  func()
}

type fakeHeap []*fakeEvent

func (h fakeHeap) Len() int { return len(h) }
func (h fakeHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h fakeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *fakeHeap) Push(x any)   { *h = append(*h, x.(*fakeEvent)) }
func (h *fakeHeap) Pop() any     { old := *h; n := len(old); ev := old[n-1]; *h = old[:n-1]; return ev }
func newFakeEnv() *fakeEnv {
	return &fakeEnv{now: time.Unix(1586000000, 0).UTC(), rng: rand.New(rand.NewSource(1))}
}
func (e *fakeEnv) Now() time.Time        { return e.now }
func (e *fakeEnv) Rand() *rand.Rand      { return e.rng }
func (e *fakeEnv) Dial(r netip.AddrPort) { e.dials = append(e.dials, r) }
func (e *fakeEnv) Disconnect(c ConnID)   { e.closed = append(e.closed, c) }

func (e *fakeEnv) Schedule(d time.Duration, fn func()) {
	e.seq++
	var ev *fakeEvent
	if k := len(e.free); k > 0 {
		ev = e.free[k-1]
		e.free = e.free[:k-1]
	} else {
		ev = new(fakeEvent)
	}
	ev.at, ev.seq, ev.fn = e.now.Add(d), e.seq, fn
	heap.Push(&e.q, ev)
}

func (e *fakeEnv) Transmit(conn ConnID, msg wire.Message, delay time.Duration) {
	if e.discard {
		if e.recycle != nil {
			e.recycle(msg)
		}
		return
	}
	e.transmits = append(e.transmits, transmitRec{
		conn: conn, msg: msg, delay: delay, at: e.now.Add(delay),
	})
}

// run executes scheduled callbacks until the queue is empty or the
// deadline passes.
func (e *fakeEnv) run(until time.Duration) {
	deadline := e.now.Add(until)
	for len(e.q) > 0 {
		next := e.q[0]
		if next.at.After(deadline) {
			break
		}
		heap.Pop(&e.q)
		e.now = next.at
		fn := next.fn
		next.fn = nil
		e.free = append(e.free, next)
		fn()
	}
	if e.now.Before(deadline) {
		e.now = deadline
	}
}

// transmitsTo returns the messages sent on conn, in order.
func (e *fakeEnv) transmitsTo(conn ConnID) []wire.Message {
	var out []wire.Message
	for _, tr := range e.transmits {
		if tr.conn == conn {
			out = append(out, tr.msg)
		}
	}
	return out
}

var testGenesis = chain.GenesisBlock("node-test")

func testConfig(self netip.AddrPort) Config {
	return Config{
		Self:      wire.NetAddress{Addr: self, Services: wire.SFNodeNetwork},
		Reachable: true,
		Genesis:   testGenesis,
	}
}

func mkAddr(a, b, c, d byte) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{a, b, c, d}), 8333)
}

// completeHandshake drives an inbound peer through VERSION/VERACK on the
// given conn and returns after the handshake completes.
func completeHandshake(t *testing.T, n *Node, env *fakeEnv, conn ConnID, peer netip.AddrPort, height int32) {
	t.Helper()
	if !n.OnInbound(peer, conn) {
		t.Fatalf("inbound connection from %v refused", peer)
	}
	n.OnMessage(conn, &wire.MsgVersion{
		ProtocolVersion: wire.ProtocolVersion,
		Timestamp:       env.Now(),
		UserAgent:       "/peer/",
		StartHeight:     height,
		Relay:           true,
	})
	n.OnMessage(conn, &wire.MsgVerAck{})
	env.run(5 * time.Second)
	p := n.peerByConn(conn)
	if p == nil || !p.handshook {
		t.Fatalf("handshake with %v did not complete", peer)
	}
}

func TestNewRequiresGenesis(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New without genesis must panic")
		}
	}()
	New(Config{}, newFakeEnv())
}

func TestStartSeedsAddrman(t *testing.T) {
	env := newFakeEnv()
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.SeedAddrs = []wire.NetAddress{
		{Addr: mkAddr(10, 0, 0, 2), Timestamp: env.Now()},
		{Addr: mkAddr(10, 0, 0, 3), Timestamp: env.Now()},
	}
	n := New(cfg, env)
	n.Start()
	if n.AddrMan().Size() != 2 {
		t.Errorf("addrman size = %d, want 2", n.AddrMan().Size())
	}
}

func TestConnectionMaintenanceDials(t *testing.T) {
	env := newFakeEnv()
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.SeedAddrs = []wire.NetAddress{
		{Addr: mkAddr(10, 0, 0, 2), Timestamp: env.Now()},
	}
	cfg.Metrics = obs.NewRegistry()
	n := New(cfg, env)
	n.Start()
	env.run(3 * time.Second)
	if len(env.dials) == 0 {
		t.Fatal("maintenance loop never dialed the seed")
	}
	if env.dials[0] != mkAddr(10, 0, 0, 2) {
		t.Errorf("dialed %v, want the seed", env.dials[0])
	}
	if cfg.Metrics.Counter("node.dial.attempt").Value() == 0 {
		t.Error("attempts not counted")
	}
}

func TestNodeNeverDialsSelf(t *testing.T) {
	env := newFakeEnv()
	self := mkAddr(10, 0, 0, 1)
	cfg := testConfig(self)
	cfg.SeedAddrs = []wire.NetAddress{{Addr: self, Timestamp: env.Now()}}
	n := New(cfg, env)
	n.Start()
	env.run(10 * time.Second)
	for _, d := range env.dials {
		if d == self {
			t.Fatal("node dialed itself")
		}
	}
}

func TestOutboundHandshakeSequence(t *testing.T) {
	env := newFakeEnv()
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.SeedAddrs = []wire.NetAddress{{Addr: mkAddr(10, 0, 0, 2), Timestamp: env.Now()}}
	n := New(cfg, env)
	n.Start()
	env.run(2 * time.Second)
	if len(env.dials) == 0 {
		t.Fatal("no dial")
	}
	peer := env.dials[0]
	n.OnDialResult(peer, 1, nil)
	env.run(time.Second)
	// Initiator speaks first: VERSION must be the first transmission.
	msgs := env.transmitsTo(1)
	if len(msgs) == 0 {
		t.Fatal("nothing transmitted after dial success")
	}
	if _, ok := msgs[0].(*wire.MsgVersion); !ok {
		t.Fatalf("first message = %T, want *MsgVersion", msgs[0])
	}
	// Complete the handshake from the remote side.
	n.OnMessage(1, &wire.MsgVersion{Timestamp: env.Now(), StartHeight: 0})
	n.OnMessage(1, &wire.MsgVerAck{})
	env.run(2 * time.Second)
	// After handshake on an outbound connection: VERACK, GETADDR and
	// self-ADDR must have gone out, and the peer must be in tried.
	var sawVerack, sawGetAddr, sawSelfAddr bool
	for _, m := range env.transmitsTo(1) {
		switch mm := m.(type) {
		case *wire.MsgVerAck:
			sawVerack = true
		case *wire.MsgGetAddr:
			sawGetAddr = true
		case *wire.MsgAddr:
			if len(mm.AddrList) == 1 && mm.AddrList[0].Addr == cfg.Self.Addr {
				sawSelfAddr = true
			}
		}
	}
	if !sawVerack || !sawGetAddr || !sawSelfAddr {
		t.Errorf("handshake follow-up missing: verack=%v getaddr=%v selfaddr=%v",
			sawVerack, sawGetAddr, sawSelfAddr)
	}
	if !n.AddrMan().InTried(peer) {
		t.Error("outbound peer not promoted to tried")
	}
}

func TestInboundRefusedWhenUnreachable(t *testing.T) {
	env := newFakeEnv()
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.Reachable = false
	n := New(cfg, env)
	n.Start()
	if n.OnInbound(mkAddr(10, 0, 0, 2), 1) {
		t.Error("unreachable node accepted an inbound connection")
	}
}

func TestInboundCapacity(t *testing.T) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	for i := 0; i < maxInbound; i++ {
		if !n.OnInbound(mkAddr(10, 0, 1, byte(i)), ConnID(i+1)) {
			t.Fatalf("inbound connection %d of %d refused", i+1, maxInbound)
		}
	}
	if n.OnInbound(mkAddr(10, 0, 2, 0), maxInbound+1) {
		t.Error("inbound connection beyond capacity accepted")
	}
}

func TestGetAddrAnsweredOnce(t *testing.T) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)
	before := len(env.transmitsTo(1))
	n.OnMessage(1, &wire.MsgGetAddr{})
	env.run(time.Second)
	afterFirst := len(env.transmitsTo(1))
	if afterFirst <= before {
		t.Fatal("first GETADDR got no response")
	}
	n.OnMessage(1, &wire.MsgGetAddr{})
	env.run(time.Second)
	if got := len(env.transmitsTo(1)); got != afterFirst {
		t.Error("second GETADDR was answered; Bitcoin Core answers once")
	}
}

func TestGetAddrResponseIncludesSelf(t *testing.T) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)
	n.OnMessage(1, &wire.MsgGetAddr{})
	env.run(time.Second)
	found := false
	for _, m := range env.transmitsTo(1) {
		if am, ok := m.(*wire.MsgAddr); ok {
			for _, a := range am.AddrList {
				if a.Addr == mkAddr(10, 0, 0, 1) {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("ADDR response does not include the node's own address")
	}
}

func TestPingPong(t *testing.T) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)
	n.OnMessage(1, &wire.MsgPing{Nonce: 777})
	env.run(time.Second)
	var pong *wire.MsgPong
	for _, m := range env.transmitsTo(1) {
		if p, ok := m.(*wire.MsgPong); ok {
			pong = p
		}
	}
	if pong == nil || pong.Nonce != 777 {
		t.Errorf("pong = %+v, want nonce 777", pong)
	}
}

func TestAddrIngestion(t *testing.T) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)
	n.OnMessage(1, &wire.MsgAddr{AddrList: []wire.NetAddress{
		{Addr: mkAddr(172, 16, 0, 1), Timestamp: env.Now()},
		{Addr: mkAddr(172, 17, 0, 1), Timestamp: env.Now()},
	}})
	env.run(time.Second)
	if !n.AddrMan().Have(mkAddr(172, 16, 0, 1)) || !n.AddrMan().Have(mkAddr(172, 17, 0, 1)) {
		t.Error("gossiped addresses not ingested")
	}
}

func TestTxInvGetDataFlow(t *testing.T) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)

	tx := &wire.MsgTx{Version: 2, TxOut: []wire.TxOut{{Value: 1, PkScript: []byte{0x51}}}}
	h := tx.TxHash()
	inv := &wire.MsgInv{}
	inv.InvList = []wire.InvVect{{Type: wire.InvTypeTx, Hash: h}}
	n.OnMessage(1, inv)
	env.run(time.Second)
	// Node must request the unknown tx.
	var requested bool
	for _, m := range env.transmitsTo(1) {
		if gd, ok := m.(*wire.MsgGetData); ok {
			for _, iv := range gd.InvList {
				if iv.Hash == h {
					requested = true
				}
			}
		}
	}
	if !requested {
		t.Fatal("tx INV did not trigger GETDATA")
	}
	n.OnMessage(1, tx)
	env.run(time.Second)
	if !n.Mempool().Have(h) {
		t.Error("tx not in mempool after delivery")
	}
	// A second INV for the same tx must not re-request.
	before := len(env.transmitsTo(1))
	n.OnMessage(1, inv)
	env.run(time.Second)
	if got := len(env.transmitsTo(1)); got != before {
		t.Error("known tx INV triggered another GETDATA")
	}
}

func TestTxRelayToOtherPeers(t *testing.T) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)
	completeHandshake(t, n, env, 2, mkAddr(10, 0, 0, 3), 0)

	tx := &wire.MsgTx{Version: 2, TxOut: []wire.TxOut{{Value: 2, PkScript: []byte{0x51}}}}
	n.OnMessage(1, tx) // unsolicited tx delivery is accepted
	env.run(time.Second)
	// Peer 2 must receive an INV for the tx; peer 1 (the source) must not.
	h := tx.TxHash()
	sawOn2, sawOn1 := false, false
	for _, conn := range []ConnID{1, 2} {
		for _, m := range env.transmitsTo(conn) {
			if iv, ok := m.(*wire.MsgInv); ok {
				for _, v := range iv.InvList {
					if v.Hash == h && v.Type == wire.InvTypeTx {
						if conn == 1 {
							sawOn1 = true
						} else {
							sawOn2 = true
						}
					}
				}
			}
		}
	}
	if !sawOn2 {
		t.Error("tx not announced to the other peer")
	}
	if sawOn1 {
		t.Error("tx announced back to its source")
	}
}

// TestRelayAllocatesPerObject pins relay's allocation shape: announcing a
// transaction costs as many allocations at 2 peers as at 8 (one INV,
// shared by every peer's queue entry), and an INV naming one unknown
// transaction costs none (it goes back as the GETDATA).
func TestRelayAllocatesPerObject(t *testing.T) {
	const runs = 100
	// warm marks keys on every peer until the node's known-inventory table
	// has room for the measured runs' keys, so it never rehashes inside
	// them.
	warm := func(n *Node, peers int) {
		for k := uint64(1); len(n.known.keys)/2-n.known.used < 2*runs; k++ {
			for c := 1; c <= peers; c++ {
				n.peerByConn(ConnID(c)).markKnown(hashWithKey(k))
			}
		}
	}
	submit := func(peers int) float64 {
		env, n := handshookNode(t, peers)
		env.discard = true
		warm(n, peers)
		txs := make([]*wire.MsgTx, runs+1) // AllocsPerRun adds a warm-up run
		for i := range txs {
			txs[i] = &wire.MsgTx{Version: 2, TxOut: []wire.TxOut{{Value: int64(i) + 1, PkScript: []byte{0x51}}}}
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			n.SubmitTx(txs[i])
			i++
			env.run(10 * time.Millisecond)
		})
	}
	if at2, at8 := submit(2), submit(8); at2 != at8 {
		t.Errorf("SubmitTx costs %v allocations at 2 peers and %v at 8: want no per-peer term", at2, at8)
	}

	env, n := handshookNode(t, 1)
	env.discard = true
	warm(n, 1)
	p := n.peerByConn(1)
	inv := &wire.MsgInv{}
	inv.InvList = []wire.InvVect{{Type: wire.InvTypeTx}}
	var k uint64
	got := testing.AllocsPerRun(runs, func() {
		k++
		binary.LittleEndian.PutUint64(inv.InvList[0].Hash[:], k)
		n.handleInv(p, inv)
		env.run(10 * time.Millisecond)
	})
	if got != 0 {
		t.Errorf("handleInv of one unknown tx costs %v allocations, want 0", got)
	}
}

// TestMaintenanceRearm pins the maintenance tick's supersession and its
// allocation. Of two ticks armed for one instant, the superseded one
// fires as a no-op and only the later one runs openConnectionsTick (which
// re-arms once, at the idle interval). Once the node's free list is warm,
// re-arming allocates nothing.
func TestMaintenanceRearm(t *testing.T) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	gen := n.maintGen
	n.scheduleMaintenance(0)
	n.scheduleMaintenance(0)
	env.run(0)
	if n.maintGen != gen+3 || len(env.q) != 1 {
		t.Fatalf("after two arms and one instant: %d arms, %d ticks queued; want 3 and 1 (a superseded tick ran?)",
			n.maintGen-gen, len(env.q))
	}
	free := 0
	for r := n.maintFree; r != nil; r = r.next {
		free++
	}
	if free != 1 {
		t.Errorf("%d tick records free, want 1 (the idle re-arm holds the other)", free)
	}

	// A stopped node's openConnectionsTick returns at once, so what is
	// counted is arming, superseding and firing alone.
	n.stopped = true
	got := testing.AllocsPerRun(100, func() {
		n.scheduleMaintenance(0)
		n.scheduleMaintenance(0)
		env.run(0)
	})
	if got != 0 {
		t.Errorf("re-arming maintenance allocates %v per run, want 0", got)
	}
}

// TestInvBecomesGetData pins handleInv's two request shapes. An INV whose
// every entry is wanted is transmitted back as the GETDATA itself, the
// same pointer; one naming a known or in-flight object gets a fresh
// GETDATA that holds only the wanted entries, in order. Either way the
// INV's list is untouched: in a relay run every peer of the announcer
// holds the same INV.
func TestInvBecomesGetData(t *testing.T) {
	env, n := handshookNode(t, 1)
	known := n.SubmitTx(&wire.MsgTx{Version: 2, TxOut: []wire.TxOut{{Value: 1, PkScript: []byte{0x51}}}})
	tx := func(k uint64) wire.InvVect { return wire.InvVect{Type: wire.InvTypeTx, Hash: hashWithKey(k)} }
	block := wire.InvVect{Type: wire.InvTypeBlock, Hash: hashWithKey(99)}

	// request delivers an INV of list and returns it with the GETDATAs
	// the node sent back.
	request := func(list ...wire.InvVect) (*wire.MsgInv, []*wire.MsgGetData) {
		t.Helper()
		inv := &wire.MsgInv{}
		inv.InvList = list
		was := append([]wire.InvVect(nil), list...)
		env.transmits = nil
		n.OnMessage(1, inv)
		env.run(time.Second)
		if len(inv.InvList) != len(was) || &inv.InvList[0] != &list[0] {
			t.Fatalf("handleInv replaced the INV's list")
		}
		for i := range was {
			if inv.InvList[i] != was[i] {
				t.Fatalf("handleInv changed INV entry %d: %v, was %v", i, inv.InvList[i], was[i])
			}
		}
		var gds []*wire.MsgGetData
		for _, m := range env.transmitsTo(1) {
			if gd, ok := m.(*wire.MsgGetData); ok {
				gds = append(gds, gd)
			}
		}
		return inv, gds
	}
	wantList := func(gd *wire.MsgGetData, want ...wire.InvVect) {
		t.Helper()
		if len(gd.InvList) != len(want) {
			t.Fatalf("GETDATA names %d entries, want %d", len(gd.InvList), len(want))
		}
		for i := range want {
			if gd.InvList[i] != want[i] {
				t.Fatalf("GETDATA entry %d = %v, want %v", i, gd.InvList[i], want[i])
			}
		}
	}

	// Every entry wanted: the INV itself is the request.
	inv, gds := request(tx(1), block, tx(2))
	if len(gds) != 1 {
		t.Fatalf("fully wanted INV: %d GETDATAs, want 1", len(gds))
	}
	if (*wire.MsgInv)(gds[0]) != inv {
		t.Error("fully wanted INV: GETDATA is a fresh message, want the INV's pointer")
	}
	wantList(gds[0], tx(1), block, tx(2))

	// A known tx and the block now in flight are skipped, wherever they
	// fall: the request is fresh and names the rest in INV order.
	knownTx := wire.InvVect{Type: wire.InvTypeTx, Hash: known}
	for _, list := range [][]wire.InvVect{
		{tx(3), knownTx, tx(4), block, tx(5)},
		{knownTx, tx(6), block, tx(7)},
		{tx(8), tx(9), block},
	} {
		inv, gds := request(list...)
		if len(gds) != 1 {
			t.Fatalf("partly known INV %v: %d GETDATAs, want 1", list, len(gds))
		}
		if (*wire.MsgInv)(gds[0]) == inv {
			t.Fatalf("partly known INV %v went back whole", list)
		}
		var want []wire.InvVect
		for _, iv := range list {
			if iv != knownTx && iv != block {
				want = append(want, iv)
			}
		}
		wantList(gds[0], want...)
	}

	// Nothing wanted: nothing requested.
	if _, gds := request(knownTx, block); len(gds) != 0 {
		t.Errorf("fully known INV: %d GETDATAs, want 0", len(gds))
	}
}

// minedChain builds a miner node with `blocks` mined on top of genesis and
// returns it with its env.
func minedChain(t *testing.T, blocks int) (*Node, *fakeEnv) {
	t.Helper()
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	for i := 0; i < blocks; i++ {
		if _, err := n.MineBlock(0); err != nil {
			t.Fatalf("mine %d: %v", i, err)
		}
	}
	return n, env
}

func TestMineBlockExtendsChain(t *testing.T) {
	n, _ := minedChain(t, 3)
	if got := n.Chain().Height(); got != 3 {
		t.Errorf("height = %d, want 3", got)
	}
}

// TestVersionAdvertisesTipHeight pins VERSION's StartHeight to the chain
// height at handshake time, not the height at construction, on both sides
// of a handshake: the initiator's VERSION (OnDialResult) and the
// responder's (handleVersion). A peer's header-sync decision in
// maybeCompleteHandshake reads this field, so a stale or zero height
// would leave every peer looking unsynced.
func TestVersionAdvertisesTipHeight(t *testing.T) {
	const k = 4
	miner := New(testConfig(mkAddr(10, 0, 0, 9)), newFakeEnv())
	var blocks []*wire.MsgBlock
	for i := 0; i < k; i++ {
		blk, err := miner.MineBlock(0)
		if err != nil {
			t.Fatalf("mine %d: %v", i, err)
		}
		blocks = append(blocks, blk)
	}
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), k)
	for _, blk := range blocks {
		n.OnMessage(1, blk)
	}
	env.run(5 * time.Second)
	if got := n.Chain().Height(); got != k {
		t.Fatalf("height after accepting %d blocks = %d", k, got)
	}
	// Each side's first message on the connection is its VERSION.
	version := func(conn ConnID) *wire.MsgVersion {
		t.Helper()
		msgs := env.transmitsTo(conn)
		if len(msgs) == 0 {
			t.Fatalf("nothing transmitted on conn %d", conn)
		}
		ver, ok := msgs[0].(*wire.MsgVersion)
		if !ok {
			t.Fatalf("first message on conn %d = %T, want *MsgVersion", conn, msgs[0])
		}
		return ver
	}

	// Initiator: the VERSION goes out with the dial result.
	n.OnDialResult(mkAddr(10, 0, 0, 3), 2, nil)
	env.run(time.Second)
	if got := version(2).StartHeight; got != n.Chain().Height() {
		t.Errorf("initiator VERSION StartHeight = %d, want chain height %d", got, n.Chain().Height())
	}

	// Responder: the VERSION answers the peer's.
	if !n.OnInbound(mkAddr(10, 0, 0, 4), 3) {
		t.Fatal("inbound connection refused")
	}
	n.OnMessage(3, &wire.MsgVersion{ProtocolVersion: wire.ProtocolVersion, Timestamp: env.Now()})
	env.run(time.Second)
	if got := version(3).StartHeight; got != n.Chain().Height() {
		t.Errorf("responder VERSION StartHeight = %d, want chain height %d", got, n.Chain().Height())
	}
}

func TestBlockAnnouncedToPeers(t *testing.T) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)
	blk, err := n.MineBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	env.run(time.Second)
	h := blk.BlockHash()
	found := false
	for _, m := range env.transmitsTo(1) {
		if iv, ok := m.(*wire.MsgInv); ok {
			for _, v := range iv.InvList {
				if v.Type == wire.InvTypeBlock && v.Hash == h {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("mined block not announced to peer")
	}
}

func TestGetHeadersServed(t *testing.T) {
	n, env := minedChain(t, 4)
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)
	n.OnMessage(1, &wire.MsgGetHeaders{
		ProtocolVersion:    wire.ProtocolVersion,
		BlockLocatorHashes: []chainhash.Hash{testGenesis.BlockHash()},
	})
	env.run(time.Second)
	var hdrs *wire.MsgHeaders
	for _, m := range env.transmitsTo(1) {
		if hm, ok := m.(*wire.MsgHeaders); ok {
			hdrs = hm
		}
	}
	if hdrs == nil {
		t.Fatal("no HEADERS response")
	}
	if len(hdrs.Headers) != 4 {
		t.Errorf("headers = %d, want 4", len(hdrs.Headers))
	}
}

func TestRoundRobinLastPeerDelay(t *testing.T) {
	// With k peers and the round-robin pump, a block announcement reaches
	// the last peer's socket strictly later than the first peer's — the
	// §IV-C effect.
	env := newFakeEnv()
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	n := New(cfg, env)
	n.Start()
	const peers = 10
	for i := 0; i < peers; i++ {
		completeHandshake(t, n, env, ConnID(i+1), mkAddr(10, 0, 1, byte(i+1)), 0)
	}
	env.transmits = nil
	if _, err := n.MineBlock(0); err != nil {
		t.Fatal(err)
	}
	env.run(10 * time.Second)

	first, last := time.Time{}, time.Time{}
	count := 0
	for _, tr := range env.transmits {
		if iv, ok := tr.msg.(*wire.MsgInv); ok && len(iv.InvList) == 1 &&
			iv.InvList[0].Type == wire.InvTypeBlock {
			count++
			if first.IsZero() || tr.at.Before(first) {
				first = tr.at
			}
			if tr.at.After(last) {
				last = tr.at
			}
		}
	}
	if count != peers {
		t.Fatalf("block announced to %d peers, want %d", count, peers)
	}
	if !last.After(first) {
		t.Error("round-robin should spread announcements over time")
	}
}

func TestBroadcastPolicyDeliversSimultaneously(t *testing.T) {
	env := newFakeEnv()
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.Policies = MustPolicySet("ideal-broadcast")
	n := New(cfg, env)
	n.Start()
	const peers = 10
	for i := 0; i < peers; i++ {
		completeHandshake(t, n, env, ConnID(i+1), mkAddr(10, 0, 1, byte(i+1)), 0)
	}
	env.transmits = nil
	if _, err := n.MineBlock(0); err != nil {
		t.Fatal(err)
	}
	env.run(10 * time.Second)

	var times []time.Time
	for _, tr := range env.transmits {
		if iv, ok := tr.msg.(*wire.MsgInv); ok && len(iv.InvList) == 1 &&
			iv.InvList[0].Type == wire.InvTypeBlock {
			times = append(times, tr.at)
		}
	}
	if len(times) != peers {
		t.Fatalf("announced to %d peers, want %d", len(times), peers)
	}
	for _, at := range times {
		if !at.Equal(times[0]) {
			t.Fatal("broadcast announcements must be simultaneous")
		}
	}
}

func TestPriorityOutboundServicesOutboundFirst(t *testing.T) {
	env := newFakeEnv()
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.Policies = MustPolicySet("priority-relay")
	n := New(cfg, env)
	n.Start()
	// Two inbound peers first, then one outbound.
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 1, 1), 0)
	completeHandshake(t, n, env, 2, mkAddr(10, 0, 1, 2), 0)
	out := mkAddr(10, 0, 1, 3)
	n.AddrMan().Add([]wire.NetAddress{{Addr: out, Timestamp: env.Now()}}, out.Addr())
	n.dialing[out] = pendingDial{dir: Outbound}
	n.OnDialResult(out, 3, nil)
	n.OnMessage(3, &wire.MsgVersion{Timestamp: env.Now()})
	n.OnMessage(3, &wire.MsgVerAck{})
	env.run(time.Second)
	env.transmits = nil
	if _, err := n.MineBlock(0); err != nil {
		t.Fatal(err)
	}
	env.run(10 * time.Second)

	// The outbound peer (conn 3) must get the block announcement no
	// later than any inbound peer.
	var outAt, inFirst time.Time
	for _, tr := range env.transmits {
		iv, ok := tr.msg.(*wire.MsgInv)
		if !ok || len(iv.InvList) != 1 || iv.InvList[0].Type != wire.InvTypeBlock {
			continue
		}
		if tr.conn == 3 {
			outAt = tr.at
		} else if inFirst.IsZero() || tr.at.Before(inFirst) {
			inFirst = tr.at
		}
	}
	if outAt.IsZero() || inFirst.IsZero() {
		t.Fatal("missing announcements")
	}
	if outAt.After(inFirst) {
		t.Errorf("outbound announced at %v, after inbound first %v", outAt, inFirst)
	}
}

func TestBlockRelayEventDelays(t *testing.T) {
	// A mined block's announcement to 8 peers is one relay.block event
	// per peer, each with a non-negative receive-to-relay delay.
	env := newFakeEnv()
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	relays := relayStream(&cfg, env)
	n := New(cfg, env)
	n.Start()
	for i := 0; i < 8; i++ {
		completeHandshake(t, n, env, ConnID(i+1), mkAddr(10, 0, 1, byte(i+1)), 0)
	}
	if _, err := n.MineBlock(0); err != nil {
		t.Fatal(err)
	}
	env.run(10 * time.Second)
	if len(*relays) != 8 {
		t.Fatalf("relay events = %d, want 8", len(*relays))
	}
	for _, ev := range *relays {
		if ev.Kind != obs.KindRelayBlock {
			t.Errorf("relay event kind %q, want %q", ev.Kind, obs.KindRelayBlock)
		}
		if ev.Dur < 0 {
			t.Errorf("negative relay delay %v", ev.Dur)
		}
	}
}

func TestStopDropsEverything(t *testing.T) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)
	n.Stop()
	if !n.Stopped() {
		t.Fatal("Stopped = false after Stop")
	}
	if len(env.closed) == 0 {
		t.Error("connections not closed on Stop")
	}
	outbound, inbound, feelers := n.ConnCounts()
	if outbound+inbound+feelers != 0 {
		t.Error("connections remain after Stop")
	}
	// Messages after stop are ignored without panicking.
	n.OnMessage(1, &wire.MsgPing{Nonce: 1})
	env.run(time.Second)
}

func TestDisconnectClearsInFlightBlocks(t *testing.T) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)
	h := chainhash.DoubleSHA256([]byte("block"))
	inv := &wire.MsgInv{}
	inv.InvList = []wire.InvVect{{Type: wire.InvTypeBlock, Hash: h}}
	n.OnMessage(1, inv)
	env.run(time.Second)
	if len(n.blocksInFlight) != 1 {
		t.Fatalf("in-flight = %d, want 1", len(n.blocksInFlight))
	}
	n.OnDisconnect(1)
	if len(n.blocksInFlight) != 0 {
		t.Error("in-flight blocks not cleared on disconnect")
	}
}

func TestFeelerDisconnectsAfterHandshake(t *testing.T) {
	env := newFakeEnv()
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.MaxOutbound = -1 // isolate the feeler loop from outbound dialing
	n := New(cfg, env)
	n.Start()
	target := mkAddr(10, 0, 0, 9)
	n.AddrMan().Add([]wire.NetAddress{{Addr: target, Timestamp: env.Now()}}, target.Addr())
	env.run(feelerInterval + time.Second) // feeler tick fires
	if len(env.dials) == 0 {
		t.Fatal("feeler never dialed")
	}
	if got, want := env.dials[len(env.dials)-1], target; got != want {
		t.Fatalf("feeler dialed %v, want %v", got, want)
	}
	// Complete the feeler handshake; the node must disconnect and promote.
	n.OnDialResult(target, 42, nil)
	n.OnMessage(42, &wire.MsgVersion{Timestamp: env.Now()})
	n.OnMessage(42, &wire.MsgVerAck{})
	env.run(time.Second)
	if !n.AddrMan().InTried(target) {
		t.Error("feeler success did not promote the address to tried")
	}
	closed := false
	for _, id := range env.closed {
		if id == 42 {
			closed = true
		}
	}
	if !closed {
		t.Error("feeler connection not closed after handshake")
	}
}

// TestDialEventsCarryDirection pins the Dir that analysis.RunPropagation
// filters on: its dial counts (the Figure 7 success rate) exclude feelers
// only by Dir, so a feeler dial must reach the Sink as Feeler and an
// outbound-slot dial as Outbound, from attempt through success.
func TestDialEventsCarryDirection(t *testing.T) {
	for _, dir := range []Direction{Outbound, Feeler} {
		t.Run(dir.String(), func(t *testing.T) {
			env := newFakeEnv()
			cfg := testConfig(mkAddr(10, 0, 0, 1))
			if dir == Feeler {
				cfg.MaxOutbound = -1
			} else {
				cfg.MaxFeelers = -1
			}
			var dials []Event
			cfg.Sink = func(ev Event) {
				if ev.Type == EvDialAttempt || ev.Type == EvDialSuccess {
					dials = append(dials, ev)
				}
			}
			n := New(cfg, env)
			n.Start()
			target := mkAddr(10, 0, 0, 9)
			n.AddrMan().Add([]wire.NetAddress{{Addr: target, Timestamp: env.Now()}}, target.Addr())
			env.run(feelerInterval + time.Second)
			if len(env.dials) != 1 || env.dials[0] != target {
				t.Fatalf("dials = %v, want one to %v", env.dials, target)
			}
			n.OnDialResult(target, 42, nil)
			want := []Event{
				{Type: EvDialAttempt, Dir: dir},
				{Type: EvDialSuccess, Dir: dir, Conn: 42},
			}
			if len(dials) != len(want) {
				t.Fatalf("dial events = %+v, want %+v", dials, want)
			}
			for i, ev := range dials {
				ev.Time = time.Time{}
				if ev != want[i] {
					t.Errorf("dial event %d = %+v, want %+v", i, ev, want[i])
				}
			}
		})
	}
}

func TestGetDataForMissingObjectAnswersNotFound(t *testing.T) {
	env := newFakeEnv()
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 0, 2), 0)
	gd := &wire.MsgGetData{}
	gd.InvList = []wire.InvVect{{Type: wire.InvTypeTx, Hash: chainhash.DoubleSHA256([]byte("nope"))}}
	n.OnMessage(1, gd)
	env.run(time.Second)
	var nf *wire.MsgNotFound
	for _, m := range env.transmitsTo(1) {
		if m2, ok := m.(*wire.MsgNotFound); ok {
			nf = m2
		}
	}
	if nf == nil {
		t.Error("missing object GETDATA not answered with NOTFOUND")
	}
}
