package simnet

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/chainhash"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/wire"
)

// lastTransmit is an Injector that passes everything and remembers the
// last message put on a link. A node's relay.* event follows the Transmit
// of its message within the same call, so the stream can read back which
// message a relay event records. It also keeps every INV and GETDATA it
// passes, with a copy of the entries as they were at the first transmit,
// and which INVs carried each (sender, object) announcement.
type lastTransmit struct {
	from, to netip.AddrPort
	msg      wire.Message
	sent     map[wire.Message][]wire.InvVect
	invs     map[sentObject]map[*wire.MsgInv]int // INV → peers it went to
}

// sentObject is one node's announcement of one object.
type sentObject struct {
	from netip.AddrPort
	obj  chainhash.Hash
}

func newLastTransmit() *lastTransmit {
	return &lastTransmit{
		sent: make(map[wire.Message][]wire.InvVect),
		invs: make(map[sentObject]map[*wire.MsgInv]int),
	}
}

func (l *lastTransmit) FilterDial(from, to netip.AddrPort) DialVerdict { return DialProceed }

func (l *lastTransmit) FilterTransmit(from, to netip.AddrPort, msg wire.Message) TransmitVerdict {
	l.from, l.to, l.msg = from, to, msg
	list, ok := invListOf(msg)
	if !ok {
		return TransmitVerdict{}
	}
	if _, seen := l.sent[msg]; !seen {
		l.sent[msg] = slices.Clone(list)
	}
	if inv, ok := msg.(*wire.MsgInv); ok {
		for _, iv := range list {
			k := sentObject{from, iv.Hash}
			if l.invs[k] == nil {
				l.invs[k] = make(map[*wire.MsgInv]int)
			}
			l.invs[k][inv]++
		}
	}
	return TransmitVerdict{}
}

// invListOf returns the entries of an INV or GETDATA.
func invListOf(msg wire.Message) ([]wire.InvVect, bool) {
	switch m := msg.(type) {
	case *wire.MsgInv:
		return m.InvList, true
	case *wire.MsgGetData:
		return m.InvList, true
	}
	return nil, false
}

// TestRelayHopParentIsOwnDelivery runs six nodes through every way a
// tracked relay entry reaches the wire — transaction INVs (announceTx),
// block INVs and compact blocks (announceBlock), bodies served on GETDATA
// (relayMarkFor), the priority-relay queue insert and the ideal-broadcast
// direct transmit — and checks the one invariant the relay record rests
// on: every relay.* event's Parent is the same node's earlier deliver.*
// Span of the same object, and the event is labelled with that object.
// It also checks the rule that lets relay allocate per object rather than
// per peer: each node announces an object with one one-entry INV that
// every peer receives as the same pointer, and no INV or GETDATA changes
// after it is transmitted.
func TestRelayHopParentIsOwnDelivery(t *testing.T) {
	net := newTestNet(24)
	last := newLastTransmit()
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
			paths["broadcast transmitNow"]++
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
		"relayMarkFor body", "insertSendPriority", "broadcast transmitNow",
	} {
		if paths[path] == 0 {
			t.Errorf("no relay event took the %s path (%d relays: %v)", path, relays, paths)
		}
	}
	if got := hosts[0].Node().Chain().Height(); got != 2*nodes {
		t.Errorf("height = %d, want %d: blocks did not propagate", got, 2*nodes)
	}

	shared := 0
	for k, invs := range last.invs {
		if len(invs) != 1 {
			t.Errorf("%v announced %v in %d INVs, want one shared by its peers", k.from, k.obj, len(invs))
		}
		for inv, peers := range invs {
			if len(inv.InvList) != 1 {
				t.Errorf("%v announced %v in an INV of %d entries, want 1", k.from, k.obj, len(inv.InvList))
			}
			if peers > 1 {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Error("no INV went to more than one peer: sharing was not exercised")
	}
	for msg, snap := range last.sent {
		if list, _ := invListOf(msg); !slices.Equal(list, snap) {
			t.Errorf("%s changed after transmit: %v, sent as %v", msg.Command(), list, snap)
		}
	}
	t.Logf("%d INV/GETDATA messages; %d announcements, %d of them to more than one peer",
		len(last.sent), len(last.invs), shared)
}

// TestTxInvSharedAcrossNodes submits one transaction on a line of five
// quiet nodes (each dials the one before it) and checks that every node
// that passes it on announces it with the same INV, the transaction's
// own tx.Inv(): relay allocates one INV per transaction per simulation,
// not one per node.
func TestTxInvSharedAcrossNodes(t *testing.T) {
	net := newTestNet(54)
	last := newLastTransmit()
	net.SetInjector(last)
	const nodes = 5
	addrs := make([]netip.AddrPort, nodes)
	hosts := make([]*Host, nodes)
	for i := range addrs {
		addrs[i] = addr4(10, 0, 0, byte(i+1), 8333)
		cfg := quietCfg(addrs[i], nil, -1)
		if i > 0 {
			cfg = quietCfg(addrs[i], seedsOf(net.Now(), addrs[i-1]), 1)
		}
		hosts[i] = net.AddFullNode(cfg)
		hosts[i].Start()
	}
	net.Scheduler().RunFor(time.Minute)

	tx := &wire.MsgTx{
		Version: 2,
		TxIn:    []wire.TxIn{{Sequence: 54, SignatureScript: []byte{5, 4}}},
		TxOut:   []wire.TxOut{{Value: 5400, PkScript: []byte{0x51}}},
	}
	net.Scheduler().After(0, func() { hosts[0].Node().SubmitTx(tx) })
	net.Scheduler().RunFor(30 * time.Second)

	h := tx.TxID()
	for i, host := range hosts {
		if !host.Node().Mempool().Have(h) {
			t.Errorf("node %d never received the transaction", i)
		}
	}
	senders := 0
	for k, invs := range last.invs {
		if k.obj != h {
			continue
		}
		senders++
		for inv := range invs {
			if inv != tx.Inv() {
				t.Errorf("%v announced the transaction with INV %p, want the shared %p", k.from, inv, tx.Inv())
			}
		}
	}
	// Along the line every node but the last has a peer to tell.
	if senders != nodes-1 {
		t.Errorf("%d nodes announced the transaction, want %d", senders, nodes-1)
	}
}
