package node

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"repro/internal/chainhash"
	"repro/internal/wire"
)

// fullWalkLoop is the pump loop as it was before the ready bitmap: every
// slot below the limit is visited on every loop and asked whether it holds
// work. It reads no bit of n.ready, which makes it the reference the
// bitmap scan is held to (TestPumpMatchesFullWalk installs it through
// n.pumpFn). The wake-up rule at the end is pumpOnce's.
func (n *Node) fullWalkLoop() {
	n.pumpArmed = false
	if n.stopped {
		return
	}
	now := n.env.Now()
	n.maybeCompactSlots()
	n.inPump = true
	busy := time.Duration(0)
	limit := len(n.slots)
	if n.pol.relay != PriorityOutbound {
		for i := 0; i < limit && !n.stopped; i++ {
			n.fullWalkSlot(i, &busy)
		}
	} else {
		for i := 0; i < limit && !n.stopped; i++ {
			if p := n.slots[i]; p != nil && p.dir != Inbound {
				n.fullWalkSlot(i, &busy)
			}
		}
		for i := 0; i < limit && !n.stopped; i++ {
			if p := n.slots[i]; p != nil && p.dir == Inbound {
				n.fullWalkSlot(i, &busy)
			}
		}
	}
	n.inPump = false
	n.maybeCompactSlots()
	if n.stopped {
		return
	}
	n.busyUntil = now.Add(busy)
	queued := 0
	for _, p := range n.slots {
		if p != nil {
			queued += p.recvLen() + p.queueLen()
		}
	}
	if n.pumpArmed {
		n.env.Schedule(busy, n.pumpFn)
	} else if queued > 0 {
		n.pumpArmed = true
		n.env.Schedule(busy+loopOverhead, n.pumpFn)
	}
}

// fullWalkSlot is serviceSlot for a slot that may be a hole or idle.
func (n *Node) fullWalkSlot(i int, busy *time.Duration) {
	p := n.slots[i]
	if p == nil {
		return
	}
	if p.recvLen() > 0 {
		*busy += msgProcTime
		n.handleMessage(p, p.popRecv())
	}
	if n.stopped || n.slots[i] != p {
		return
	}
	if p.queueLen() > 0 {
		out := p.popSend()
		*busy += n.sendTime(out.msg)
		n.transmitNow(p, &out, *busy)
	}
}

// guardPump routes n's pump wake-ups through loop and fails the test when
// one fires before the previous loop's socket work has ended: the
// condition pumpOnce used to test for, and answer by re-scheduling itself.
// after runs once the loop returns, with the loop's start time. Call it
// before anything can arm the pump.
func guardPump(t *testing.T, n *Node, loop func(), after func(start time.Time)) {
	n.pumpFn = func() {
		start := n.env.Now()
		if start.Before(n.busyUntil) {
			t.Errorf("pump callback ran at %v, %v before busyUntil",
				start.Format("15:04:05.000000"), n.busyUntil.Sub(start))
		}
		loop()
		after(start)
	}
}

// checkReady asserts the bitmap invariant: bit i is set exactly when
// slots[i] is a live peer with a message in either queue, and every live
// peer knows its own slot.
func checkReady(t *testing.T, n *Node) {
	t.Helper()
	if 64*len(n.ready) < len(n.slots) {
		t.Fatalf("%d ready words for %d slots", len(n.ready), len(n.slots))
	}
	for i := 0; i < 64*len(n.ready); i++ {
		want := false
		if i < len(n.slots) && n.slots[i] != nil {
			p := n.slots[i]
			if int(p.slot) != i {
				t.Fatalf("peer %d sits in slot %d and records slot %d", p.id, i, p.slot)
			}
			want = p.recvLen()+p.queueLen() > 0
		}
		if got := n.ready[i>>6]>>(i&63)&1 == 1; got != want {
			t.Fatalf("ready bit %d = %v, slot has work = %v (%d slots)", i, got, want, len(n.slots))
		}
	}
}

// sentRec is one Env.Transmit call as the remote end would date it.
type sentRec struct {
	at   time.Time
	conn ConnID
	cmd  string
}

func (r sentRec) String() string {
	return fmt.Sprintf("%s conn %d %s", r.at.Format("15:04:05.000000000"), r.conn, r.cmd)
}

// scriptEnv is fakeEnv with every transmit recorded as a sentRec and a
// hook that runs inside Transmit, that is, in the middle of a pump loop.
type scriptEnv struct {
	*fakeEnv
	sent       []sentRec
	onTransmit func()
}

func (e *scriptEnv) Transmit(conn ConnID, msg wire.Message, delay time.Duration) {
	e.sent = append(e.sent, sentRec{at: e.now.Add(delay), conn: conn, cmd: msg.Command()})
	if e.onTransmit != nil {
		e.onTransmit()
	}
}

// pumpScript drives one node through a seeded sequence of connection and
// message events. Every decision comes from rng and from the script's own
// bookkeeping, never from the node, so two scripts with one seed stay in
// step for as long as their nodes transmit the same messages in the same
// order.
type pumpScript struct {
	t   *testing.T
	env *scriptEnv
	n   *Node
	rng *rand.Rand

	conns    []ConnID // opened by the script and not closed by it
	nextConn ConnID
	nextTx   uint32
	txs      []chainhash.Hash
	tip      chainhash.Hash
	// midLoop holds actions waiting for a transmit inside a pump loop.
	midLoop []func()

	starts      []time.Time // pump loop start times
	midLoopRan  int
	compactions int
	slotsBefore int
}

func newPumpScript(t *testing.T, seed int64, policies string, reference bool) *pumpScript {
	s := &pumpScript{
		t:   t,
		env: &scriptEnv{fakeEnv: newFakeEnv()},
		rng: rand.New(rand.NewSource(seed)),
	}
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.Policies = MustPolicySet(policies)
	s.n = New(cfg, s.env)
	loop := s.n.pumpOnce
	if reference {
		loop = s.n.fullWalkLoop
	}
	guardPump(t, s.n, loop, func(start time.Time) {
		s.starts = append(s.starts, start)
		s.noteSlots()
		if !reference {
			checkReady(t, s.n)
		}
	})
	s.env.onTransmit = func() {
		if !s.n.inPump || len(s.midLoop) == 0 {
			return
		}
		act := s.midLoop[0]
		s.midLoop = s.midLoop[1:]
		s.midLoopRan++
		act()
	}
	s.n.Start()
	return s
}

// noteSlots counts slot-array compactions: nothing else shortens n.slots
// while the node runs.
func (s *pumpScript) noteSlots() {
	if len(s.n.slots) < s.slotsBefore {
		s.compactions++
	}
	s.slotsBefore = len(s.n.slots)
}

// open adds a connection of a drawn direction and, most of the time, the
// remote's side of the handshake. A feeler that completes its handshake
// is disconnected by the handler, in the middle of a loop.
func (s *pumpScript) open() {
	s.nextConn++
	conn := s.nextConn
	remote := mkAddr(10, 1, byte(conn>>8), byte(conn))
	switch r := s.rng.Intn(10); {
	case r < 6:
		if !s.n.OnInbound(remote, conn) {
			return
		}
	case r < 9:
		s.n.OnDialResult(remote, conn, nil)
	default:
		s.n.dialing[remote] = Feeler
		s.n.OnDialResult(remote, conn, nil)
	}
	s.conns = append(s.conns, conn)
	if s.rng.Intn(8) > 0 {
		s.n.OnMessage(conn, &wire.MsgVersion{Timestamp: s.env.Now(), Relay: true})
		s.n.OnMessage(conn, &wire.MsgVerAck{})
	}
}

// pick draws one of the script's connections and, when take is set,
// removes it from the list.
func (s *pumpScript) pick(take bool) (ConnID, bool) {
	if len(s.conns) == 0 {
		return 0, false
	}
	i := s.rng.Intn(len(s.conns))
	conn := s.conns[i]
	if take {
		s.conns[i] = s.conns[len(s.conns)-1]
		s.conns = s.conns[:len(s.conns)-1]
	}
	return conn, true
}

// message delivers one drawn message on a drawn connection. A new
// transaction is announced to every other handshook peer, so its handler
// queues to slots below and above the sender's.
func (s *pumpScript) message() {
	conn, ok := s.pick(false)
	if !ok {
		return
	}
	var msg wire.Message
	switch r := s.rng.Intn(20); {
	case r < 9:
		msg = &wire.MsgPing{Nonce: s.rng.Uint64()}
	case r < 12:
		s.nextTx++
		tx := &wire.MsgTx{
			Version: 2,
			TxIn:    []wire.TxIn{{PreviousOutPoint: wire.OutPoint{Index: s.nextTx}, Sequence: s.nextTx}},
			TxOut:   []wire.TxOut{{Value: int64(s.nextTx), PkScript: []byte{0x51}}},
		}
		s.txs = append(s.txs, tx.TxHash())
		msg = tx
	case r < 14:
		var h chainhash.Hash
		s.rng.Read(h[:])
		inv := &wire.MsgInv{}
		inv.InvList = []wire.InvVect{{Type: wire.InvTypeTx, Hash: h}}
		msg = inv
	case r < 16 && len(s.txs) > 0:
		gd := &wire.MsgGetData{}
		gd.InvList = []wire.InvVect{{Type: wire.InvTypeTx, Hash: s.txs[s.rng.Intn(len(s.txs))]}}
		msg = gd
	case r < 17 && s.tip != (chainhash.Hash{}):
		// A block body: about half a second of socket time, so later
		// steps land inside the busy period.
		gd := &wire.MsgGetData{}
		gd.InvList = []wire.InvVect{{Type: wire.InvTypeBlock, Hash: s.tip}}
		msg = gd
	case r < 18:
		msg = &wire.MsgGetAddr{}
	default:
		msg = &wire.MsgSendCmpct{Announce: false, Version: 1} // handled, answers nothing
	}
	s.n.OnMessage(conn, msg)
}

// step performs one drawn script action.
func (s *pumpScript) step() {
	switch r := s.rng.Intn(100); {
	case r < 40:
		for k := 1 + s.rng.Intn(12); k > 0; k-- {
			s.message()
		}
	case r < 50:
		s.open()
	case r < 55:
		if conn, ok := s.pick(true); ok {
			s.n.OnDisconnect(conn)
		}
	case r < 62:
		s.midLoop = append(s.midLoop, func() {
			if conn, ok := s.pick(true); ok {
				s.n.OnDisconnect(conn)
			}
		})
	case r < 67:
		s.midLoop = append(s.midLoop, s.open)
	case r < 70:
		blk, err := s.n.MineBlock(0)
		if err != nil {
			s.t.Fatalf("MineBlock: %v", err)
		}
		s.tip = blk.BlockHash()
	default:
		waits := [...]time.Duration{
			0, 50 * time.Microsecond, 300 * time.Microsecond, time.Millisecond,
			5 * time.Millisecond, 50 * time.Millisecond, time.Second,
		}
		s.env.run(waits[s.rng.Intn(len(waits))])
	}
	s.noteSlots()
}

// run plays the whole script: fill to 48 connections, then rounds of
// drawn steps, each round ending with most connections closed at once (so
// holes outnumber live slots and the array compacts) and refilled; last,
// the node is stopped from inside a loop.
func (s *pumpScript) run() {
	for len(s.conns) < 48 {
		s.open()
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 400; i++ {
			s.step()
		}
		for len(s.conns) > 12 {
			conn, _ := s.pick(true)
			s.n.OnDisconnect(conn)
		}
		s.env.run(10 * time.Millisecond)
		s.noteSlots()
		for len(s.conns) < 48 {
			s.open()
		}
	}
	s.env.run(time.Minute)
	s.midLoop = append(s.midLoop[:0], s.n.Stop)
	for i := 0; i < 30; i++ {
		s.message()
	}
	s.env.run(time.Minute)
}

// TestPumpMatchesFullWalk holds the bitmap-driven pump to the loop it
// replaced. Two nodes run one seeded script (about fifty connections of
// all three directions, bursts, relayed transactions, block bodies,
// disconnects and new connections both between and inside loops, mass
// disconnects that compact the slot array, a Stop inside a loop), one on
// pumpOnce and one on fullWalkLoop; they must transmit the same commands
// on the same connections at the same times, and start their loops at the
// same times. On the bitmap node the ready invariant is checked after
// every loop.
func TestPumpMatchesFullWalk(t *testing.T) {
	for _, policies := range []string{"stock", "priority-relay", "ideal-broadcast"} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", policies, seed), func(t *testing.T) {
				got := newPumpScript(t, seed, policies, false)
				want := newPumpScript(t, seed, policies, true)
				got.run()
				want.run()

				if len(want.env.sent) < 5000 {
					t.Errorf("reference transmitted %d messages, script too quiet", len(want.env.sent))
				}
				if want.compactions < 4 || want.midLoopRan < 20 || !want.n.stopped {
					t.Errorf("script exercised too little: %d compactions, %d mid-loop actions, stopped=%v",
						want.compactions, want.midLoopRan, want.n.stopped)
				}
				if len(got.env.sent) != len(want.env.sent) {
					t.Errorf("transmits: %d, full walk %d", len(got.env.sent), len(want.env.sent))
				}
				for i := 0; i < len(got.env.sent) && i < len(want.env.sent); i++ {
					if g, w := got.env.sent[i], want.env.sent[i]; !g.at.Equal(w.at) || g.conn != w.conn || g.cmd != w.cmd {
						t.Fatalf("transmit %d: %v, full walk: %v", i, g, w)
					}
				}
				if len(got.starts) != len(want.starts) {
					t.Errorf("loops: %d, full walk %d", len(got.starts), len(want.starts))
				}
				for i := 0; i < len(got.starts) && i < len(want.starts); i++ {
					if !got.starts[i].Equal(want.starts[i]) {
						t.Fatalf("loop %d starts at %v, full walk %v", i, got.starts[i], want.starts[i])
					}
				}
				checkReady(t, got.n) // after Stop: no slots, no bits
			})
		}
	}
}

// countingEnv is fakeEnv with every Schedule call recorded.
type countingEnv struct {
	*fakeEnv
	calls []schedCall
}

// schedCall is one Env.Schedule call: when it was made and for when.
type schedCall struct{ at, due time.Time }

func (e *countingEnv) Schedule(d time.Duration, fn func()) {
	e.calls = append(e.calls, schedCall{at: e.now, due: e.now.Add(d)})
	e.fakeEnv.Schedule(d, fn)
}

// TestPumpWakeups pins the single-wake-up rule: a loop is scheduled once,
// for the instant it may start, and no pump callback fires inside the
// previous loop's busy period to find that out.
func TestPumpWakeups(t *testing.T) {
	env := &countingEnv{fakeEnv: newFakeEnv()}
	n := New(testConfig(mkAddr(10, 0, 0, 1)), env)
	var starts []time.Time
	guardPump(t, n, n.pumpOnce, func(start time.Time) { starts = append(starts, start) })
	n.Start()
	for conn := ConnID(1); conn <= 3; conn++ {
		if !n.OnInbound(mkAddr(10, 0, 1, byte(conn)), conn) {
			t.Fatal("inbound refused")
		}
		n.OnMessage(conn, &wire.MsgVersion{Timestamp: env.Now()})
		n.OnMessage(conn, &wire.MsgVerAck{})
	}
	env.run(time.Second)
	if n.pumpArmed || n.hasPendingWork() {
		t.Fatal("pump not idle after the handshakes")
	}
	// quiet is handled and answers nothing: a loop that services only
	// such messages ends with nothing queued and no wake-up owed.
	quiet := &wire.MsgSendCmpct{Version: 1}
	// deliver hands msg to the node and returns the Schedule calls that
	// made; the test makes its deliveries between env.run windows, so no
	// timer of the node's own is in the count.
	deliver := func(conn ConnID, msg wire.Message) []schedCall {
		before := len(env.calls)
		n.OnMessage(conn, msg)
		return env.calls[before:]
	}
	// loopsDuring runs the env for d and returns the loops started.
	loopsDuring := func(d time.Duration) []time.Time {
		before := len(starts)
		env.run(d)
		return starts[before:]
	}

	// Idle pump, idle wire: one wake-up, for now.
	t0 := env.Now()
	if calls := deliver(1, quiet); len(calls) != 1 || !calls[0].due.Equal(t0) {
		t.Fatalf("arrival on an idle node scheduled %v, want one wake-up at %v", calls, t0)
	}
	if loops := loopsDuring(0); len(loops) != 1 || !loops[0].Equal(t0) {
		t.Fatalf("loops %v, want one at %v", loops, t0)
	}
	busyUntil := t0.Add(msgProcTime)
	if !n.busyUntil.Equal(busyUntil) || n.pumpArmed {
		t.Fatalf("after a quiet loop: busyUntil %v armed %v, want %v unarmed", n.busyUntil, n.pumpArmed, busyUntil)
	}

	// Mid-busy arrival: exactly one Schedule call, for busyUntil; a second
	// arrival adds none; the loop starts at busyUntil and nothing pump-side
	// runs before.
	env.run(msgProcTime / 2)
	if calls := deliver(2, quiet); len(calls) != 1 || !calls[0].due.Equal(busyUntil) {
		t.Fatalf("mid-busy arrival scheduled %v, want one wake-up at busyUntil %v", calls, busyUntil)
	}
	if calls := deliver(3, quiet); len(calls) != 0 {
		t.Fatalf("arrival with the pump armed scheduled %v", calls)
	}
	if loops := loopsDuring(time.Second); len(loops) != 1 || !loops[0].Equal(busyUntil) {
		t.Fatalf("loops %v, want one at busyUntil %v", loops, busyUntil)
	}

	// A handler that queues a reply (PING → PONG) arms the pump from
	// inside the loop: the next loop starts when this one's socket work
	// ends, with no LoopOverhead added.
	t1 := env.Now()
	deliver(1, &wire.MsgPing{Nonce: 1})
	loopsDuring(0)
	if !n.pumpArmed || !n.busyUntil.After(t1) {
		t.Fatalf("after a loop whose handler queued: armed %v busyUntil %v", n.pumpArmed, n.busyUntil)
	}
	busyUntil = n.busyUntil
	if last := env.calls[len(env.calls)-1]; !last.at.Equal(t1) || !last.due.Equal(busyUntil) {
		t.Fatalf("in-loop arm scheduled %v, want made at %v for busyUntil %v", last, t1, busyUntil)
	}
	if loops := loopsDuring(time.Second); len(loops) != 1 || !loops[0].Equal(busyUntil) {
		t.Fatalf("loops %v, want one at busyUntil %v", loops, busyUntil)
	}

	// A backlog nobody armed for (two messages on one connection, one
	// serviced per loop) is picked up LoopOverhead after the socket work.
	t2 := env.Now()
	deliver(2, quiet)
	deliver(2, quiet)
	want := []time.Time{t2, t2.Add(msgProcTime + loopOverhead)}
	if loops := loopsDuring(time.Second); len(loops) != 2 || !loops[0].Equal(want[0]) || !loops[1].Equal(want[1]) {
		t.Fatalf("loops %v, want %v", loops, want)
	}
	if n.pumpArmed || n.hasPendingWork() {
		t.Fatal("pump not idle at the end")
	}
}

// TestOutMsgSize pins the send-queue entry at no more than 48 bytes:
// every queued message is copied into the queue and out of it by value,
// once per peer per relayed object, so the entry's size is paid on the
// relay hot path. A field that would only let the relay record re-derive
// something (the full hash, a time.Time) belongs outside it.
func TestOutMsgSize(t *testing.T) {
	if got := unsafe.Sizeof(outMsg{}); got > 48 {
		t.Errorf("outMsg is %d bytes, want <= 48", got)
	}
}
