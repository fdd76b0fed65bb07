package simnet

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/wire"
)

// lastTransmit is an Injector that passes everything and remembers the
// last message put on a link. A node's relay.* event follows the Transmit
// of its message within the same call, so the stream can read back which
// message a relay event records.
type lastTransmit struct {
	from, to netip.AddrPort
	msg      wire.Message
}

func (l *lastTransmit) FilterDial(from, to netip.AddrPort) DialVerdict { return DialProceed }

func (l *lastTransmit) FilterTransmit(from, to netip.AddrPort, msg wire.Message) TransmitVerdict {
	l.from, l.to, l.msg = from, to, msg
	return TransmitVerdict{}
}

// TestRelayHopParentIsOwnDelivery runs six nodes through every way a
// tracked relay entry reaches the wire — transaction INVs (announceTx),
// block INVs and compact blocks (announceBlock), bodies served on GETDATA
// (relayMarkFor), the priority-relay queue insert and the ideal-broadcast
// direct transmit — and checks the one invariant the relay record rests
// on: every relay.* event's Parent is the same node's earlier deliver.*
// Span of the same object, and the event is labelled with that object.
func TestRelayHopParentIsOwnDelivery(t *testing.T) {
	net := newTestNet(24)
	last := &lastTransmit{}
	net.SetInjector(last)
	tr := obs.NewTracer(0, net.Now)

	const nodes = 6
	addrs := make([]netip.AddrPort, nodes)
	for i := range addrs {
		addrs[i] = addr4(10, 0, 0, byte(i+1), 8333)
	}
	policy := map[int]string{3: "priority-relay", 4: "ideal-broadcast"}
	hosts := make([]*Host, nodes)
	for i, a := range addrs {
		cfg := nodeCfg(a, seedsOf(net.Now(), addrs...))
		cfg.CompactBlocks = i < 3 // 0–2 announce to each other by CMPCTBLOCK
		if p, ok := policy[i]; ok {
			cfg.Policies = node.MustPolicySet(p)
		}
		cfg.Tracer = tr
		hosts[i] = net.AddFullNode(cfg)
	}

	type key struct {
		at  netip.AddrPort
		obj obs.ObjectID
	}
	type delivery struct {
		span  uint64
		block bool
	}
	delivered := make(map[key]delivery)
	paths := map[string]int{}
	relays := 0
	tr.AddStream(func(ev *obs.Event) {
		switch ev.Kind {
		case obs.KindDeliverBlock, obs.KindDeliverTx:
			delivered[key{ev.To, ev.Obj}] = delivery{ev.Span, ev.Kind == obs.KindDeliverBlock}
			return
		case obs.KindRelayBlock, obs.KindRelayTx:
		default:
			return
		}
		relays++
		block := ev.Kind == obs.KindRelayBlock
		d, ok := delivered[key{ev.From, ev.Obj}]
		switch {
		case !ok:
			t.Errorf("%v relays %v with no earlier delivery of it", ev.From, ev.Obj)
		case ev.Parent == 0 || ev.Parent != d.span:
			t.Errorf("%v relays %v under parent %x, want its delivery span %x", ev.From, ev.Obj, ev.Parent, d.span)
		case d.block != block:
			t.Errorf("%v: %s of an object delivered as block=%v", ev.From, ev.Kind, d.block)
		}
		if last.from != ev.From || last.to != ev.To {
			t.Fatalf("relay %v->%v does not follow its transmit (last %v->%v)", ev.From, ev.To, last.from, last.to)
		}
		switch m := last.msg.(type) {
		case *wire.MsgInv:
			if block {
				paths["announceBlock INV"]++
			} else {
				paths["announceTx INV"]++
			}
		case *wire.MsgCmpctBlock:
			paths["announceBlock CMPCTBLOCK"]++
		case *wire.MsgTx, *wire.MsgBlock:
			paths["relayMarkFor body"]++
		default:
			t.Errorf("relay event recorded for a %T", m)
		}
		switch ev.From {
		case addrs[3]:
			if block {
				paths["insertSendPriority"]++
			}
		case addrs[4]:
			paths["Broadcast transmitNow"]++
		}
	})

	for _, h := range hosts {
		h.Start()
	}
	net.Scheduler().RunFor(time.Minute)
	for round := 0; round < 2*nodes; round++ {
		h := hosts[round%nodes]
		tx := &wire.MsgTx{
			Version: 2,
			TxIn:    []wire.TxIn{{Sequence: uint32(round), SignatureScript: []byte{byte(round), 24}}},
			TxOut:   []wire.TxOut{{Value: int64(round+1) * 1000, PkScript: []byte{0x51}}},
		}
		net.Scheduler().After(0, func() { h.Node().SubmitTx(tx) })
		net.Scheduler().RunFor(5 * time.Second)
		net.Scheduler().After(0, func() {
			if _, err := h.Node().MineBlock(0); err != nil {
				t.Errorf("mine: %v", err)
			}
		})
		net.Scheduler().RunFor(15 * time.Second)
	}

	t.Logf("%d relay events by path: %v", relays, paths)
	for _, path := range []string{
		"announceTx INV", "announceBlock INV", "announceBlock CMPCTBLOCK",
		"relayMarkFor body", "insertSendPriority", "Broadcast transmitNow",
	} {
		if paths[path] == 0 {
			t.Errorf("no relay event took the %s path (%d relays: %v)", path, relays, paths)
		}
	}
	if got := hosts[0].Node().Chain().Height(); got != 2*nodes {
		t.Errorf("height = %d, want %d: blocks did not propagate", got, 2*nodes)
	}
}
