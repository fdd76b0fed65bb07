package simnet

import (
	"errors"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Dial failure modes, distinguishable with errors.Is.
var (
	// ErrTimeout reports a dial that never received an answer (the
	// target is offline or silently drops SYNs) — resolved only after
	// the full dial timeout, the cost §IV-B attributes to unreachable
	// addresses in addrman.
	ErrTimeout = errors.New("simnet: dial timeout")
	// ErrRefused reports an active refusal: the target is up but does
	// not accept inbound connections (NATed/unreachable node answering
	// with RST/FIN, the paper's "responsive" class) or is out of inbound
	// capacity.
	ErrRefused = errors.New("simnet: connection refused")
)

// DialVerdict is a fault injector's decision about one dial attempt.
type DialVerdict int

// Dial verdicts.
const (
	// DialProceed lets the dial run its normal course.
	DialProceed DialVerdict = iota
	// DialBlock silently discards the SYN: the dial fails with
	// ErrTimeout after the full dial timeout (a partitioned or
	// black-holed route).
	DialBlock
	// DialRefuse answers the dial with an immediate RST: the dial fails
	// with ErrRefused after the handshake RTT.
	DialRefuse
)

// TransmitVerdict is a fault injector's decision about one message
// transmission. The zero value delivers the message normally.
type TransmitVerdict struct {
	// Drop discards the message entirely (the link stays up — the
	// receiver simply never sees it, like a lost TCP segment on a
	// connection that later resets).
	Drop bool
	// ExtraDelay is added on top of the link latency (a latency spike).
	// Because other messages on the link are not delayed, a spike lets
	// later messages overtake this one — delay doubles as reordering.
	ExtraDelay time.Duration
	// Duplicate delivers a second copy DuplicateDelay after the first.
	Duplicate      bool
	DuplicateDelay time.Duration
}

// Injector intercepts the network's dial and transmit paths. The
// internal/faults package provides a deterministic, seeded
// implementation; the interface lives here so simnet does not depend on
// it. Implementations are called from inside scheduler callbacks and
// must be deterministic for a given call sequence.
type Injector interface {
	// FilterDial is consulted for every connection attempt before any
	// target semantics apply.
	FilterDial(from, to netip.AddrPort) DialVerdict
	// FilterTransmit is consulted for every message put on an
	// established link.
	FilterTransmit(from, to netip.AddrPort, msg wire.Message) TransmitVerdict
}

// Constants of the connection model. No caller varies them (see
// DESIGN.md, "Configuration").
const (
	// dialTimeout is how long an unanswered dial takes to fail: Bitcoin
	// Core's connect timeout.
	dialTimeout = 5 * time.Second
	// handshakeRTTs is the number of latency units consumed by TCP
	// connection establishment before the protocol handshake: SYN +
	// SYNACK/ACK.
	handshakeRTTs = 2
	// fastFailPct is the percentage of dials to dead addresses that fail
	// quickly with a refusal (RST from a host that departed) instead of
	// waiting out the full timeout (SYN silently dropped by a NAT). The
	// outcome is deterministic per address.
	fastFailPct = 50
)

// Config parameterizes a Network.
type Config struct {
	// Seed drives all randomness in the network and its nodes.
	Seed int64
	// Latency is the one-way link delay model (defaults to a 20–100 ms
	// hash latency).
	Latency LatencyFunc
	// Metrics, when set, receives the network's instrumentation:
	// scheduler queue depth, dial outcome counters, and the transmit
	// latency histogram (simnet.* names). Nil disables instrumentation
	// at negligible cost.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Latency == nil {
		c.Latency = HashLatency(20*time.Millisecond, 100*time.Millisecond)
	}
	return c
}

// link is an established connection between two hosts. Both endpoints
// address it by the same ConnID. latency is the one-way delay between
// them, fixed when the link forms: LatencyFunc is deterministic per pair,
// so caching it changes no delivery time and keeps the pair hash off the
// per-message path.
type link struct {
	id      node.ConnID
	a, b    *Host
	latency time.Duration
	closed  bool
}

// other returns the opposite endpoint.
func (l *link) other(h *Host) *Host {
	if l.a == h {
		return l.b
	}
	return l.a
}

// Network owns the simulated hosts, links, and the event scheduler.
type Network struct {
	cfg      Config
	sched    *Scheduler
	rng      *rand.Rand
	hosts    map[netip.AddrPort]*Host
	links    map[node.ConnID]*link
	next     node.ConnID
	injector Injector

	// Metric handles, resolved once at construction; nil-safe no-ops
	// when Config.Metrics is nil.
	mDialOK      *obs.Counter
	mDialRefused *obs.Counter
	mDialTimeout *obs.Counter
	mTransmit    *obs.Counter
	mTransmitDup *obs.Counter
	hTransmit    *obs.Histogram
}

// New creates an empty simulated network.
func New(cfg Config) *Network {
	cfg = cfg.withDefaults()
	n := &Network{
		cfg: cfg,
		// Virtual time starts on 04 Apr 2020, the crawl start.
		sched: NewScheduler(time.Unix(1585958400, 0).UTC()),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		hosts: make(map[netip.AddrPort]*Host),
		links: make(map[node.ConnID]*link),

		mDialOK:      cfg.Metrics.Counter("simnet.dial.ok"),
		mDialRefused: cfg.Metrics.Counter("simnet.dial.refused"),
		mDialTimeout: cfg.Metrics.Counter("simnet.dial.timeout"),
		mTransmit:    cfg.Metrics.Counter("simnet.transmit.count"),
		mTransmitDup: cfg.Metrics.Counter("simnet.transmit.duplicated"),
		hTransmit:    cfg.Metrics.Histogram("simnet.transmit.delay"),
	}
	n.sched.SetMetrics(cfg.Metrics)
	return n
}

// Scheduler exposes the event scheduler for harness-driven workloads
// (block mining ticks, churn traces, measurements).
func (n *Network) Scheduler() *Scheduler { return n.sched }

// Now returns the current virtual time.
func (n *Network) Now() time.Time { return n.sched.Now() }

// Host returns the host registered at addr, or nil.
func (n *Network) Host(addr netip.AddrPort) *Host { return n.hosts[addr] }

// AddFullNode registers a host at cfg.Self running the full node state
// machine. The host starts offline; call Host.Start.
func (n *Network) AddFullNode(cfg node.Config) *Host {
	h := &Host{
		net:   n,
		addr:  cfg.Self.Addr,
		links: make(map[node.ConnID]*link),
		rng:   rand.New(rand.NewSource(n.rng.Int63())),
	}
	h.nodeCfg = cfg
	n.hosts[h.addr] = h
	return h
}

// AddBlackholeStub registers a stalling endpoint: it accepts the TCP
// connection (the dial succeeds and a link forms) but never sends a
// byte, so the dialer's handshake hangs until its own stall detection
// gives up. This is the adversity class behind the node-side handshake
// and keepalive timeouts. Call Start to bring it online.
func (n *Network) AddBlackholeStub(addr netip.AddrPort) *Host {
	h := &Host{
		net:       n,
		addr:      addr,
		blackhole: true,
		links:     make(map[node.ConnID]*link),
	}
	n.hosts[addr] = h
	return h
}

// SetInjector installs (or, with nil, removes) the fault injector
// consulted on every dial and transmit. Install it before the scenario
// runs; swapping injectors mid-run is allowed and takes effect for
// subsequent calls.
func (n *Network) SetInjector(i Injector) { n.injector = i }

// addLink registers l with the network and both of its endpoints.
func (n *Network) addLink(l *link) {
	n.links[l.id] = l
	l.a.links[l.id] = l
	l.b.links[l.id] = l
}

// dial implements the connection attempt semantics. Called by a Host on
// behalf of its node.
func (n *Network) dial(from *Host, remote netip.AddrPort) {
	fromEpoch := from.epoch
	target := n.hosts[remote]

	fail := func(after time.Duration, err error) {
		if errors.Is(err, ErrRefused) {
			n.mDialRefused.Inc()
		} else {
			n.mDialTimeout.Inc()
		}
		n.sched.After(after, func() {
			if from.epoch != fromEpoch || from.node == nil {
				return
			}
			from.node.OnDialResult(remote, 0, err)
		})
	}

	// Fault injection comes first: a partitioned or black-holed route
	// fails regardless of what the target would have answered.
	if n.injector != nil {
		switch n.injector.FilterDial(from.addr, remote) {
		case DialBlock:
			fail(dialTimeout, ErrTimeout)
			return
		case DialRefuse:
			rtt := n.cfg.Latency(from.addr.Addr(), remote.Addr()) * handshakeRTTs
			fail(rtt, ErrRefused)
			return
		}
	}

	// Unknown or offline targets: a deterministic per-address split
	// between fast refusals (RST) and full SYN timeouts. The split is
	// intentionally a property of the target alone — whether a dead
	// address answers with an RST (departed host, route still up) or
	// silently swallows the SYN (NAT/firewall) does not depend on who
	// dials it, so every dialer observes the same failure mode.
	if target == nil || !target.online {
		if int(addrHash(remote.Addr())%100) < fastFailPct {
			rtt := n.cfg.Latency(from.addr.Addr(), remote.Addr()) * handshakeRTTs
			fail(rtt, ErrRefused)
		} else {
			fail(dialTimeout, ErrTimeout)
		}
		return
	}
	lat := n.cfg.Latency(from.addr.Addr(), remote.Addr())
	rtt := lat * handshakeRTTs
	// Full node or black-hole target: the accept decision happens at the
	// target after the connection-establishment RTT.
	targetEpoch := target.epoch
	n.sched.After(rtt, func() {
		if from.epoch != fromEpoch || from.node == nil {
			return
		}
		if target.epoch != targetEpoch || !target.online {
			fail(dialTimeout-rtt, ErrTimeout)
			return
		}
		if target.blackhole {
			// The black hole accepts the connection and then says
			// nothing, ever: the link exists but no handshake will
			// complete on it.
			n.next++
			id := n.next
			n.addLink(&link{id: id, a: from, b: target, latency: lat})
			n.mDialOK.Inc()
			from.node.OnDialResult(remote, id, nil)
			return
		}
		if target.node == nil {
			fail(dialTimeout-rtt, ErrTimeout)
			return
		}
		n.next++
		id := n.next
		if !target.node.OnInbound(from.addr, id) {
			fail(lat, ErrRefused)
			return
		}
		n.addLink(&link{id: id, a: from, b: target, latency: lat})
		n.mDialOK.Inc()
		from.node.OnDialResult(remote, id, nil)
	})
}

// transmit delivers msg over the link after the sender-side delay plus
// link latency, subject to the fault injector's verdict.
func (n *Network) transmit(from *Host, id node.ConnID, msg wire.Message, delay time.Duration) {
	l := n.links[id]
	if l == nil || l.closed {
		return
	}
	to := l.other(from)
	var verdict TransmitVerdict
	if n.injector != nil {
		verdict = n.injector.FilterTransmit(from.addr, to.addr, msg)
		if verdict.Drop {
			return
		}
	}
	total := delay + l.latency + verdict.ExtraDelay
	n.mTransmit.Inc()
	n.hTransmit.ObserveDuration(total)
	// A delivery event owns only references: the same msg pointer rides
	// both copies of a duplicated message and is never recycled here.
	deliver := payload{link: l, host: to, epoch: to.epoch, msg: msg}
	n.sched.scheduleAfter(total, deliver)
	if verdict.Duplicate {
		n.mTransmitDup.Inc()
		n.sched.scheduleAfter(total+verdict.DuplicateDelay, deliver)
	}
}

// closeLink tears a link down, notifying the remote endpoint after the
// link latency and the local endpoint immediately.
func (n *Network) closeLink(from *Host, id node.ConnID) {
	l := n.links[id]
	if l == nil || l.closed {
		return
	}
	l.closed = true
	delete(n.links, id)
	delete(l.a.links, id)
	delete(l.b.links, id)
	local, remote := l.a, l.b
	if from != nil && l.b == from {
		local, remote = l.b, l.a
	}
	if local.node != nil {
		local.node.OnDisconnect(id)
	}
	remoteEpoch := remote.epoch
	n.sched.After(l.latency, func() {
		if remote.epoch != remoteEpoch || remote.node == nil {
			return
		}
		remote.node.OnDisconnect(id)
	})
}
