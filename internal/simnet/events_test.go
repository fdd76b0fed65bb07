package simnet

import (
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/wire"
)

// TestSchedulerOrderIsStableSortByTime schedules a few thousand events
// drawn from a handful of timestamps — so ties dominate — a third of them
// from inside running callbacks, and checks the execution order against
// the specification: a stable sort of the insertion sequence by due time.
func TestSchedulerOrderIsStableSortByTime(t *testing.T) {
	epoch := time.Unix(1000, 0).UTC()
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler(epoch)
		type rec struct {
			id int
			at time.Time
		}
		var inserted []rec // insertion order
		var ran []int      // execution order
		var add func(depth int)
		add = func(depth int) {
			id := len(inserted)
			// 16 distinct offsets; events added from a callback may ask
			// for a time already past, which clamps to the current time.
			at := epoch.Add(time.Duration(rng.Intn(16)) * time.Millisecond)
			if at.Before(s.Now()) {
				at = s.Now()
			}
			inserted = append(inserted, rec{id, at})
			children := 0
			if depth < 3 && rng.Intn(3) == 0 {
				children = 1 + rng.Intn(3)
			}
			s.At(at, func() {
				ran = append(ran, id)
				for i := 0; i < children; i++ {
					add(depth + 1)
				}
			})
		}
		for i := 0; i < 3000; i++ {
			add(0)
		}
		s.RunUntil(epoch.Add(time.Second))
		if s.Pending() != 0 {
			t.Fatalf("seed %d: %d events left", seed, s.Pending())
		}
		if len(ran) != len(inserted) || len(ran) < 3500 {
			t.Fatalf("seed %d: ran %d of %d events", seed, len(ran), len(inserted))
		}
		want := append([]rec(nil), inserted...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at.Before(want[j].at) })
		for i := range want {
			if ran[i] != want[i].id {
				t.Fatalf("seed %d: position %d ran event %d, stable sort says %d", seed, i, ran[i], want[i].id)
			}
		}
	}
}

// quietCfg is nodeCfg with the dialing loops limited to maxOutbound
// connections and no feelers, so that once a connection has settled the
// node's own periodic ticks put no message on the wire.
func quietCfg(self netip.AddrPort, seeds []wire.NetAddress, maxOutbound int) node.Config {
	cfg := nodeCfg(self, seeds)
	cfg.MaxOutbound = maxOutbound
	cfg.MaxFeelers = -1
	return cfg
}

// quietPair builds two quiet full nodes with one handshook link from a to
// b and returns it once the network has gone idle.
func quietPair(tb testing.TB, seed int64) (net *Network, ha, hb *Host, l *link) {
	tb.Helper()
	net = newTestNet(seed)
	a := addr4(10, 0, 0, 1, 8333)
	b := addr4(10, 0, 0, 2, 8333)
	hb = net.AddFullNode(quietCfg(b, nil, -1))
	ha = net.AddFullNode(quietCfg(a, seedsOf(net.Now(), b), 1))
	hb.Start()
	ha.Start()
	net.Scheduler().RunFor(time.Minute)
	if len(ha.links) != 1 {
		tb.Fatalf("a has %d links, want 1", len(ha.links))
	}
	for _, l = range ha.links {
	}
	if out, _, _ := ha.Node().ConnCounts(); out != 1 {
		tb.Fatalf("a outbound = %d, want 1", out)
	}
	return net, ha, hb, l
}

// deliveriesOf returns the queued delivery events carrying msg, earliest
// first.
func deliveriesOf(s *Scheduler, msg wire.Message) []*event {
	var out []*event
	for _, ev := range s.events {
		if ev.link != nil && ev.msg == msg {
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return before(out[i], out[j]) })
	return out
}

// TestInFlightMessageDroppedAcrossRestart: a message on its way to a
// host that stops and starts again before it lands belongs to the old
// session. To show it is the delivery's own epoch guard that drops it,
// the test undoes everything else a restart changes: the link is marked
// open again and the new node is given a peer on the old connection ID.
func TestInFlightMessageDroppedAcrossRestart(t *testing.T) {
	net, ha, hb, l := quietPair(t, 41)
	msg := &wire.MsgPong{Nonce: 1}
	ha.Transmit(l.id, msg, time.Second)
	queued := deliveriesOf(net.sched, msg)
	if len(queued) != 1 {
		t.Fatalf("%d deliveries queued, want 1", len(queued))
	}
	stale := queued[0].payload

	hb.Stop()
	if !l.closed {
		t.Fatal("Stop left the link open")
	}
	hb.Start()
	l.closed = false
	if !hb.Node().OnInbound(ha.Addr(), l.id) {
		t.Fatal("restarted node refused the inbound connection")
	}

	// A delivered message arms the receiver's pump: one more event.
	pending := net.sched.Pending()
	stale.run()
	if got := net.sched.Pending(); got != pending {
		t.Errorf("stale delivery reached the restarted node: pending %d -> %d", pending, got)
	}
	// Control: addressed to the current session, the same payload lands.
	fresh := stale
	fresh.epoch = hb.epoch
	fresh.run()
	if got := net.sched.Pending(); got != pending+1 {
		t.Errorf("control delivery did not arm the pump: pending %d -> %d", pending, got)
	}

	// End to end: the original event drains without effect.
	net.Scheduler().RunFor(5 * time.Second)
}

// TestDuplicateVerdictDeliversSamePointerTwice: a Duplicate verdict
// queues two deliveries of the one message value — at total and at
// total+DuplicateDelay — and both land.
func TestDuplicateVerdictDeliversSamePointerTwice(t *testing.T) {
	net, ha, hb, l := quietPair(t, 42)
	ping := &wire.MsgPing{Nonce: 99}
	pongs := 0
	net.SetInjector(&scriptInjector{
		transmit: func(from, to netip.AddrPort, msg wire.Message) TransmitVerdict {
			if msg == wire.Message(ping) {
				return TransmitVerdict{
					ExtraDelay:     30 * time.Millisecond,
					Duplicate:      true,
					DuplicateDelay: 50 * time.Millisecond,
				}
			}
			if pong, ok := msg.(*wire.MsgPong); ok && pong.Nonce == ping.Nonce && from == hb.Addr() {
				pongs++
			}
			return TransmitVerdict{}
		},
	})
	sent := net.Now()
	ha.Transmit(l.id, ping, 5*time.Millisecond)

	queued := deliveriesOf(net.sched, ping)
	if len(queued) != 2 {
		t.Fatalf("%d deliveries queued, want 2", len(queued))
	}
	// Sender delay 5 ms + link latency 10 ms + spike 30 ms.
	total := 45 * time.Millisecond
	for i, want := range []time.Duration{total, total + 50*time.Millisecond} {
		ev := queued[i]
		if got := time.Duration(ev.at - sent.UnixNano()); got != want {
			t.Errorf("delivery %d due after %v, want %v", i, got, want)
		}
		if ev.link != l || ev.host != hb || ev.epoch != hb.epoch {
			t.Errorf("delivery %d addressed to link %v host %v epoch %d", i, ev.link, ev.host.addr, ev.epoch)
		}
	}
	net.Scheduler().RunFor(time.Second)
	if pongs != 2 {
		t.Errorf("receiver answered %d of the 2 copies", pongs)
	}
}

// TestHostScheduleDroppedAfterStop: a callback a host armed belongs to
// the session that armed it — it must not run once that host has
// stopped, whether or not it has started again since.
func TestHostScheduleDroppedAfterStop(t *testing.T) {
	net, ha, hb, _ := quietPair(t, 43)
	var ran []string
	arm := func(h *Host, name string) {
		h.Schedule(time.Second, func() { ran = append(ran, name) })
	}
	arm(ha, "stopped")
	ha.Stop()
	arm(hb, "restarted")
	hb.Stop()
	hb.Start()
	arm(hb, "live")
	net.Scheduler().RunFor(5 * time.Second)
	if len(ran) != 1 || ran[0] != "live" {
		t.Errorf("callbacks run: %v, want only the live session's", ran)
	}
}

// TestHotEventsDoNotAllocate pins the point of the typed event payloads:
// in steady state neither a transmit→deliver→pump cycle nor a
// Host.Schedule of a cached func allocates. The message is an unsolicited
// PONG, which the receiving node drops without allocating, so the zero is
// simnet's own.
func TestHotEventsDoNotAllocate(t *testing.T) {
	net, ha, _, l := quietPair(t, 44)
	pong := &wire.MsgPong{Nonce: 7}
	sched := net.Scheduler()
	if avg := testing.AllocsPerRun(500, func() {
		ha.Transmit(l.id, pong, 0)
		sched.RunFor(20 * time.Millisecond)
	}); avg != 0 {
		t.Errorf("Transmit -> OnMessage -> pump: %v allocs per message, want 0", avg)
	}
	ticks := 0
	tick := func() { ticks++ }
	if avg := testing.AllocsPerRun(500, func() {
		ha.Schedule(0, tick)
		sched.RunFor(0)
	}); avg != 0 {
		t.Errorf("Host.Schedule(0, cachedFn): %v allocs per call, want 0", avg)
	}
	if ticks != 501 {
		t.Errorf("scheduled callback ran %d times, want 501", ticks)
	}
}
