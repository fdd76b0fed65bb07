// Package node implements a full Bitcoin node as a deterministic state
// machine, reproducing the Bitcoin Core v0.20.1 mechanisms the paper's
// §IV analyzes at the source level:
//
//   - connection management: 8 outbound slots filled by sampling addrman's
//     new/tried tables with equal probability, up to 117 inbound slots, and
//     periodic feeler connections (§IV-B);
//   - the ADDR/GETADDR gossip protocol, including self-advertisement and
//     the 1000-address response cap (§III, §IV-B);
//   - the net.cpp message-handling architecture: per-peer vProcessMsg and
//     vSendMsg queues drained by a round-robin loop that services one
//     message per connection per iteration (Figure 9 / Algorithm 3), which
//     is the root cause of the block relay delays in §IV-C;
//   - INV-based and BIP-152 compact-block relay, initial block download,
//     and mempool maintenance.
//
// The node performs no I/O itself. It runs against an Env (clock, timers,
// dialing, transmission), which the simnet package implements with virtual
// time and the tcpnet package implements over real sockets. Relay policy
// is pluggable so the paper's §V refinement (priority block relay to
// outbound connections) can be compared against the stock round-robin and
// the idealized broadcast of the theoretical models.
package node

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/addrman"
	"repro/internal/chain"
	"repro/internal/chainhash"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ConnID identifies a connection. IDs are assigned by the environment and
// are opaque to the node.
type ConnID int64

// Direction classifies a connection relative to this node.
type Direction int

// Connection directions.
const (
	// Outbound connections are dialed by this node and always reach
	// reachable peers — the distinction §V's priority relay exploits.
	Outbound Direction = iota + 1
	// Inbound connections are accepted from reachable or unreachable
	// peers.
	Inbound
	// Feeler connections probe new-table addresses and disconnect
	// immediately after a successful handshake.
	Feeler
)

// String returns a short direction label.
func (d Direction) String() string {
	switch d {
	case Outbound:
		return "outbound"
	case Inbound:
		return "inbound"
	case Feeler:
		return "feeler"
	default:
		return "unknown"
	}
}

// RelayPolicy selects how queued messages are scheduled across
// connections.
type RelayPolicy int

// Relay policies.
const (
	// RoundRobin is Bitcoin Core's behaviour: one message per connection
	// per message-handler loop (Algorithm 3 in the paper).
	RoundRobin RelayPolicy = iota + 1
	// Broadcast is the idealized lock-step model of the theoretical
	// literature: announcements leave to every connection simultaneously.
	Broadcast
	// PriorityOutbound is the paper's §V refinement: blocks jump the send
	// queue and outbound (always-reachable) connections are serviced
	// first.
	PriorityOutbound
)

// String returns the policy name. Out-of-range values render as a
// stable "unknown(N)" form, so logs and CSV cells stay unambiguous and
// distinct values never collide on a bare "unknown".
func (p RelayPolicy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case Broadcast:
		return "broadcast"
	case PriorityOutbound:
		return "priority-outbound"
	default:
		return fmt.Sprintf("unknown(%d)", int(p))
	}
}

// Env is the node's window to the outside world. Implementations provide
// time, randomness, timers, and connectivity; the simnet implementation
// uses virtual time, the tcpnet implementation real sockets.
type Env interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time
	// Rand returns the node's random source.
	Rand() *rand.Rand
	// Schedule runs fn after d elapses. Implementations may drop the
	// callback if the node is stopped before it fires.
	Schedule(d time.Duration, fn func())
	// Dial asynchronously opens a connection to remote; the result
	// arrives via OnDialResult.
	Dial(remote netip.AddrPort)
	// Transmit puts msg on the wire for conn after the given local
	// serialization delay. Delivery latency is the environment's
	// business.
	Transmit(conn ConnID, msg wire.Message, delay time.Duration)
	// Disconnect closes conn; both ends observe OnDisconnect.
	Disconnect(conn ConnID)
}

// Slot targets, matching Bitcoin Core. These two are what Config's
// MaxOutbound and MaxFeelers default to; measurement code reads them.
const (
	// DefaultMaxOutbound is the outbound connection target.
	DefaultMaxOutbound = 8
	// DefaultMaxFeelers is the number of concurrent feeler connections.
	DefaultMaxFeelers = 2
)

// Protocol constants of the one program the paper analyses, Bitcoin Core
// v0.20.1. No caller varies them, so they are not configuration (see
// DESIGN.md, "Configuration").
const (
	// maxInbound is the inbound connection capacity (125 slots less the
	// outbound ones).
	maxInbound = 117
	// feelerInterval is how often a feeler is attempted (FEELER_INTERVAL).
	feelerInterval = 2 * time.Minute
	// connectInterval is how often the openConnections loop tries to fill
	// an empty outbound slot.
	connectInterval = 500 * time.Millisecond
	// connectIdleInterval is the maintenance cadence while all outbound
	// slots are filled; it keeps large simulations cheap without changing
	// behaviour (the loop is re-armed immediately on disconnect).
	connectIdleInterval = 30 * time.Second
	// userAgent is advertised in the VERSION handshake.
	userAgent = "/Satoshi:0.20.1(repro)/"
	// loopOverhead is the fixed cost of one message-handler loop
	// iteration.
	loopOverhead = time.Millisecond
	// msgProcTime is the processing cost of one inbound message.
	msgProcTime = 200 * time.Microsecond
	// defaultBytesPerSec is the effective serialization rate of the
	// node's uplink, shared by all its sockets, that Config.BytesPerSec
	// defaults to.
	defaultBytesPerSec = 2 << 20
	// blockSizeHint is the synthetic full-block wire size used for timing,
	// simulated blocks carrying few transactions (real 2020 blocks average
	// ~1.2 MB).
	blockSizeHint = 1 << 20
	// pingInterval is how long a peer may stay quiet before a keepalive
	// PING is sent (PING_INTERVAL).
	pingInterval = 2 * time.Minute
	// stallTimeout disconnects a peer whose keepalive PING has gone
	// unanswered for this long (TIMEOUT_INTERVAL).
	stallTimeout = 20 * time.Minute
	// handshakeTimeout disconnects peers that fail to complete
	// VERSION/VERACK, evicting black-hole peers that accept and stall
	// (the version-handshake timeout).
	handshakeTimeout = 60 * time.Second
	// blockStallTimeout evicts a peer that sits on a requested block for
	// this long, so IBD can continue from another peer (the 2-minute
	// stalling rule, simplified to a flat per-request deadline).
	blockStallTimeout = 2 * time.Minute
	// healthTickEvery is the cadence of the health checks: a quarter of
	// the tightest timeout above.
	healthTickEvery = handshakeTimeout / 4
	// dialBackoffBase is the first reconnect backoff applied to an address
	// after a failed dial; it doubles per consecutive failure, is capped at
	// dialBackoffMax and jittered ±50%, so dial storms do not hammer dead
	// addresses.
	dialBackoffBase = 10 * time.Second
	dialBackoffMax  = 10 * time.Minute
)

// Config parameterizes a node.
type Config struct {
	// Self is the node's own advertised address.
	Self wire.NetAddress
	// Reachable nodes accept inbound connections; unreachable nodes (the
	// paper's NATed population) only dial out.
	Reachable bool
	// MaxOutbound and MaxFeelers bound the dialed connection slots
	// (defaults applied when zero; negative disables that slot type, which
	// a served-only node uses to stay off the dialer).
	MaxOutbound int
	MaxFeelers  int
	// MaxPendingDials caps concurrent outbound connection attempts.
	// Bitcoin Core's ThreadOpenConnections is strictly serial (one
	// blocking connect per loop — use 1 to model it); the default equals
	// MaxOutbound, which recovers slots faster.
	MaxPendingDials int
	// CompactBlocks enables BIP-152 high-bandwidth block relay.
	CompactBlocks bool
	// Policies is the ordered intervention set (see policy.go). It is
	// compiled once in New into plain fields — the hot paths never
	// consult the set. The last policy to set a knob wins.
	Policies PolicySet
	// AddrSink, when non-nil, receives every multi-address ADDR payload
	// this node ingests (GETADDR response chunks; one-address
	// self-advertisements are skipped). It is the measurement seam the
	// Grundmann estimators attach to — nil costs nothing on the ADDR
	// path.
	AddrSink func(from netip.AddrPort, addrs []wire.NetAddress)
	// SeedAddrs boot the address manager (DNS-seeder equivalent).
	SeedAddrs []wire.NetAddress
	// Genesis anchors the chain. Required.
	Genesis *wire.MsgBlock
	// BytesPerSec is the effective serialization rate of the node's
	// uplink in the service-time model (default applied when zero). It is
	// one rate shared by all the node's sockets: a pump loop adds every
	// send to one running busy total, whichever slot it leaves on.
	BytesPerSec int
	// Sink receives instrumentation events; nil discards them. It must
	// not retain pointers into the node and should return quickly.
	Sink func(Event)
	// Metrics, when set, receives the node's counters and latency
	// histograms (node.* names: dial outcomes, health evictions, relay
	// and block-download delays). Nil disables metric collection.
	Metrics *obs.Registry
	// Tracer, when set, records structured dial/handshake/relay/
	// block-download events. Nil disables tracing.
	Tracer *obs.Tracer
	// AddrManKey seeds addrman bucket placement.
	AddrManKey uint64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MaxOutbound == 0 {
		c.MaxOutbound = DefaultMaxOutbound
	}
	if c.MaxFeelers == 0 {
		c.MaxFeelers = DefaultMaxFeelers
	}
	if c.MaxPendingDials == 0 {
		c.MaxPendingDials = c.MaxOutbound
	}
	if c.BytesPerSec == 0 {
		c.BytesPerSec = defaultBytesPerSec
	}
	return c
}

// Node is the deterministic Bitcoin node state machine. All methods must
// be called from the environment's event loop (single-threaded execution,
// as with the simnet scheduler); the node performs no internal locking.
type Node struct {
	cfg Config
	env Env

	addrman *addrman.AddrMan
	chain   *chain.Chain
	mempool *chain.Mempool

	// Peer bookkeeping is structure-of-arrays: slots holds peers in
	// arrival order (the round-robin order), slotOf maps a ConnID to its
	// slot index. Removal leaves a nil hole so slot indices stay stable
	// while the pump iterates; holes are compacted outside the pump once
	// they outnumber live entries. ready is the pump's work list, one bit
	// per slot index (see pump.go); it never shrinks.
	slots     []*Peer
	slotOf    map[ConnID]int32
	slotHoles int
	ready     []uint64
	inPump    bool
	// Per-direction connection counters, maintained by addPeer/removePeer
	// so ConnCounts is O(1) (it runs on every maintenance tick).
	nOutbound int
	nInbound  int
	nFeelers  int

	byAddr     map[netip.AddrPort]*Peer
	dialing    map[netip.AddrPort]pendingDial
	pumpArmed  bool       // a pump wake-up is scheduled, or the running loop owes one
	busyUntil  time.Time  // virtual time the current loop's socket work ends
	maintGen   uint64     // supersession counter for maintenance scheduling
	maintFree  *maintTick // fired maintenance ticks, reused by scheduleMaintenance
	maintFirst maintTick  // first tick record, embedded: Start's arm allocates nothing
	started    bool
	stopped    bool
	syncedOnce bool

	// pumpFn is the cached method value for pumpOnce: Schedule is called
	// on every pump arm and re-arm, and a fresh method-value closure per
	// call would allocate on the hottest path in the package. healthFn
	// and feelerFn do the same for the two periodic ticks.
	pumpFn   func()
	healthFn func()
	feelerFn func()

	// pongFree recycles outbound PONG values. It is fed only by
	// RecycleOutbound — environments that fully consume messages at
	// Transmit time — so under simnet (which retains and may re-deliver
	// message pointers) it stays empty and every PONG is freshly
	// allocated.
	pongFree []*wire.MsgPong

	// pol is the compiled policy set (resolved once in New); hot paths
	// read its plain fields, never Config.Policies.
	pol compiledPolicies
	// anchors is the churn-resilient-peering state: recently-good
	// outbound peer addresses in confirmation order, retried first when
	// an outbound slot frees up. A failed anchor dial evicts the
	// address, so a stale list cannot starve the addrman path.
	anchors []netip.AddrPort

	// backoff holds the per-address reconnect schedule; addresses are
	// skipped by selectDialTarget until their deadline passes.
	backoff map[netip.AddrPort]*backoffState
	// met holds the obs metric handles (nil-safe no-ops when
	// Config.Metrics is nil); tracer records structured events.
	met    nodeMetrics
	tracer *obs.Tracer
	// blocksInFlight tracks requested blocks (and when they were
	// requested) to avoid duplicate GETDATA and to detect stalls.
	blocksInFlight map[chainhash.Hash]inFlightBlock
	// known is the known-inventory table every peer's knows/markKnown
	// probe (see knownTable).
	known knownTable
	// seenTimes records when each object (block or tx) was first seen, in
	// Unix nanoseconds under its invKey, for relay-delay instrumentation:
	// the paper measures receive-to-last-connection delay including body
	// transfers.
	seenTimes map[uint64]int64
	// pendingCmpct holds compact blocks awaiting GETBLOCKTXN completion.
	pendingCmpct map[chainhash.Hash]*pendingCompact
}

// pendingCompact is a compact block whose reconstruction awaits a
// BLOCKTXN response.
type pendingCompact struct {
	cb      *wire.MsgCmpctBlock
	partial *chain.ReconstructResult
	from    ConnID
}

// inFlightBlock records who a block was requested from and when, for the
// block-download stall detector.
type inFlightBlock struct {
	conn      ConnID
	requested time.Time
}

// nodeMetrics groups the obs handles the node writes on its hot paths.
// Each handle is resolved once in New and is a nil no-op when metrics
// are disabled.
type nodeMetrics struct {
	dialAttempt     *obs.Counter
	dialSuccess     *obs.Counter
	dialFail        *obs.Counter
	pingsSent       *obs.Counter
	stallEvict      *obs.Counter
	handshakeEvict  *obs.Counter
	blockStallEvict *obs.Counter
	backoffArmed    *obs.Counter
	relayBlock      *obs.Histogram
	relayTx         *obs.Histogram
	handshakeTime   *obs.Histogram
	blockDownload   *obs.Histogram
}

// resolveMetrics binds the handles against reg (all nil when reg is nil).
func resolveMetrics(reg *obs.Registry) nodeMetrics {
	return nodeMetrics{
		dialAttempt:     reg.Counter("node.dial.attempt"),
		dialSuccess:     reg.Counter("node.dial.success"),
		dialFail:        reg.Counter("node.dial.fail"),
		pingsSent:       reg.Counter("node.ping.sent"),
		stallEvict:      reg.Counter("node.evict.stall"),
		handshakeEvict:  reg.Counter("node.evict.handshake"),
		blockStallEvict: reg.Counter("node.evict.blockstall"),
		backoffArmed:    reg.Counter("node.backoff.armed"),
		relayBlock:      reg.Histogram("node.relay.block.delay"),
		relayTx:         reg.Histogram("node.relay.tx.delay"),
		handshakeTime:   reg.Histogram("node.handshake.time"),
		blockDownload:   reg.Histogram("node.block.download.time"),
	}
}

// New constructs a node bound to env. Call Start to bring it online.
func New(cfg Config, env Env) *Node {
	cfg = cfg.withDefaults()
	if cfg.Genesis == nil {
		panic("node: Config.Genesis is required")
	}
	n := &Node{
		cfg:            cfg,
		env:            env,
		chain:          chain.New(cfg.Genesis),
		mempool:        chain.NewMempool(),
		slotOf:         make(map[ConnID]int32),
		byAddr:         make(map[netip.AddrPort]*Peer),
		dialing:        make(map[netip.AddrPort]pendingDial),
		backoff:        make(map[netip.AddrPort]*backoffState),
		blocksInFlight: make(map[chainhash.Hash]inFlightBlock),
		pendingCmpct:   make(map[chainhash.Hash]*pendingCompact),
		seenTimes:      make(map[uint64]int64),
		met:            resolveMetrics(cfg.Metrics),
		tracer:         cfg.Tracer,
	}
	amCfg := addrman.Config{
		Key:  cfg.AddrManKey,
		Now:  env.Now,
		Rand: env.Rand(),
	}
	n.pol, amCfg = resolvePolicies(cfg.Policies, amCfg)
	n.addrman = addrman.New(amCfg)
	n.pumpFn = n.pumpOnce
	n.healthFn = n.healthTick
	n.feelerFn = n.feelerTick
	n.maintFirst = maintTick{n: n}
	n.maintFirst.fn = n.maintFirst.fire
	n.maintFree = &n.maintFirst
	return n
}

// Start boots the node: seeds the address manager and begins the
// connection maintenance and feeler loops.
func (n *Node) Start() {
	if n.started {
		return
	}
	n.started = true
	if len(n.cfg.SeedAddrs) > 0 {
		n.addrman.Add(n.cfg.SeedAddrs, n.cfg.Self.Addr.Addr())
	}
	n.scheduleMaintenance(0)
	n.env.Schedule(feelerInterval, n.feelerFn)
	n.env.Schedule(healthTickEvery, n.healthFn)
}

// Stop takes the node offline: every connection is dropped and future
// callbacks become no-ops.
func (n *Node) Stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	for _, p := range n.slots {
		if p != nil {
			n.env.Disconnect(p.id)
			p.slot, p.bit = -1, -1
		}
	}
	n.known = knownTable{}
	n.slots = nil
	n.slotOf = make(map[ConnID]int32)
	n.slotHoles = 0
	clear(n.ready)
	n.nOutbound, n.nInbound, n.nFeelers = 0, 0, 0
	n.byAddr = make(map[netip.AddrPort]*Peer)
}

// Stopped reports whether Stop was called.
func (n *Node) Stopped() bool { return n.stopped }

// Chain exposes the node's chain state (read-mostly; analyses sample tip
// heights).
func (n *Node) Chain() *chain.Chain { return n.chain }

// Mempool exposes the node's transaction pool.
func (n *Node) Mempool() *chain.Mempool { return n.mempool }

// AddrMan exposes the node's address manager for measurement code.
func (n *Node) AddrMan() *addrman.AddrMan { return n.addrman }

// PeerAddrs returns the remote addresses of current connections,
// filtered by direction (0 = all).
func (n *Node) PeerAddrs(dir Direction) []netip.AddrPort {
	out := make([]netip.AddrPort, 0, len(n.slots)-n.slotHoles)
	for _, p := range n.slots {
		if p == nil {
			continue
		}
		if dir != 0 && p.dir != dir {
			continue
		}
		out = append(out, p.addr)
	}
	return out
}

// ConnCounts returns the number of established connections by direction —
// the Figure 6 observable (feelers included).
func (n *Node) ConnCounts() (outbound, inbound, feelers int) {
	return n.nOutbound, n.nInbound, n.nFeelers
}

// IsSynced reports whether the node believes it is at the network tip
// (completed at least one header sync with no outstanding block
// requests).
func (n *Node) IsSynced() bool {
	return n.syncedOnce && len(n.blocksInFlight) == 0
}

// noteSeen records the first-seen time of an object, bounding the map.
func (n *Node) noteSeen(h chainhash.Hash, t time.Time) {
	const maxSeen = 8192
	if len(n.seenTimes) >= maxSeen {
		n.seenTimes = make(map[uint64]int64, maxSeen/4)
	}
	k := invKey(h)
	if _, ok := n.seenTimes[k]; !ok {
		n.seenTimes[k] = t.UnixNano()
	}
}

// traceDeliver emits the delivery-span trace event for an accepted
// object and returns the span, which every relay entry for the object
// carries as its Parent (see relayOut). Span identity is SpanKey-derived,
// so the receiving node's Parent matches the sender's own delivery Span
// without any shared state — PropagationTree stitches the hops back
// together from the flat stream. from is the zero AddrPort at the origin
// (local mine or submit), which yields Parent 0 (tree root).
func (n *Node) traceDeliver(kind string, h chainhash.Hash, from netip.AddrPort, at time.Time) uint64 {
	self := n.cfg.Self.Addr
	span := obs.SpanKey(self, h[:])
	if n.tracer == nil {
		return span
	}
	ev := obs.Event{
		Time: at, Kind: kind, From: from, To: self,
		Obj: obs.ObjectPrefix(h.Prefix()), Span: span,
	}
	if from.IsValid() {
		ev.Parent = obs.SpanKey(from, h[:])
	} else {
		ev.From = self
	}
	n.tracer.Emit(ev)
	return span
}

// emit delivers an instrumentation event to the configured sink.
func (n *Node) emit(ev Event) {
	if n.cfg.Sink != nil {
		n.cfg.Sink(ev)
	}
}

// openConnectionsTick fills empty outbound slots, one dial per tick, then
// reschedules itself — Bitcoin Core's ThreadOpenConnections cadence.
func (n *Node) openConnectionsTick() {
	if n.stopped {
		return
	}
	outbound, _, _ := n.ConnCounts()
	pendingOut := 0
	for _, d := range n.dialing {
		if d.dir == Outbound {
			pendingOut++
		}
	}
	interval := connectIdleInterval
	if outbound+pendingOut < n.cfg.MaxOutbound && pendingOut < n.cfg.MaxPendingDials {
		if na, ok := n.selectDialTarget(false); ok {
			n.startDial(na, Outbound)
		}
		interval = connectInterval
	}
	n.scheduleMaintenance(interval)
}

// maintTick is one armed openConnectionsTick: the generation it was
// armed at and its cached fire method value, so that re-arming a
// recycled record allocates nothing. Fired records wait on the node's
// free list.
type maintTick struct {
	n    *Node
	gen  uint64
	fn   func()
	next *maintTick // free-list link
}

// fire runs the tick unless a later scheduleMaintenance superseded it. A
// superseded tick still fires, as a no-op, at the time it was armed for.
// Either way the record goes back on the free list first, so the re-arm
// inside openConnectionsTick reuses it.
func (t *maintTick) fire() {
	n := t.n
	live := t.gen == n.maintGen
	t.next, n.maintFree = n.maintFree, t
	if live {
		n.openConnectionsTick()
	}
}

// scheduleMaintenance arms the next openConnectionsTick, superseding any
// previously scheduled one (so a disconnect can pull the next attempt
// forward without creating duplicate tick chains).
func (n *Node) scheduleMaintenance(d time.Duration) {
	n.maintGen++
	t := n.maintFree
	if t != nil {
		n.maintFree = t.next
	} else {
		t = &maintTick{n: n}
		t.fn = t.fire
	}
	t.gen = n.maintGen
	n.env.Schedule(d, t.fn)
}

// feelerTick opens short-lived feeler connections that test new-table
// addresses, moving responsive ones to tried (Bitcoin Core PR #9037,
// which the paper's Figure 6 observes as connections 9 and 10).
func (n *Node) feelerTick() {
	if n.stopped {
		return
	}
	_, _, feelers := n.ConnCounts()
	pendingFeelers := 0
	for _, d := range n.dialing {
		if d.dir == Feeler {
			pendingFeelers++
		}
	}
	if feelers+pendingFeelers < n.cfg.MaxFeelers {
		if na, ok := n.selectDialTarget(true); ok {
			n.startDial(na, Feeler)
		}
	}
	n.env.Schedule(feelerInterval, n.feelerFn)
}

// selectDialTarget samples addrman for a dialable address, skipping self,
// current peers, and in-flight dials. Under churn-resilient-peering,
// regular outbound dials try the anchor list first (bypassing backoff —
// an anchor was good moments ago, and a failed retry evicts it), so a
// node that just lost a peer to churn reconnects to proven addresses
// instead of re-gambling on the mostly-dead gossip mix.
func (n *Node) selectDialTarget(newOnly bool) (wire.NetAddress, bool) {
	if n.pol.anchorsEnabled && !newOnly {
		if na, ok := n.selectAnchor(); ok {
			return na, true
		}
	}
	const tries = 20
	for i := 0; i < tries; i++ {
		na, ok := n.addrman.Select(newOnly)
		if !ok {
			return wire.NetAddress{}, false
		}
		if na.Addr == n.cfg.Self.Addr {
			continue
		}
		if _, connected := n.byAddr[na.Addr]; connected {
			continue
		}
		if _, inFlight := n.dialing[na.Addr]; inFlight {
			continue
		}
		if n.inBackoff(na.Addr) {
			continue
		}
		return na, true
	}
	return wire.NetAddress{}, false
}

// selectAnchor returns the oldest anchor not already connected or being
// dialed. Anchors are kept in confirmation order, so the scan is
// deterministic.
func (n *Node) selectAnchor() (wire.NetAddress, bool) {
	for _, a := range n.anchors {
		if a == n.cfg.Self.Addr {
			continue
		}
		if _, connected := n.byAddr[a]; connected {
			continue
		}
		if _, inFlight := n.dialing[a]; inFlight {
			continue
		}
		return wire.NetAddress{
			Addr: a, Services: wire.SFNodeNetwork, Timestamp: n.env.Now(),
		}, true
	}
	return wire.NetAddress{}, false
}

// maxAnchors bounds the anchor list (§ Younis-style resilience): big
// enough to cover every outbound slot, small enough that a stale list
// drains quickly (failed anchors are dropped on dial failure).
const maxAnchors = 2 * DefaultMaxOutbound

// noteAnchor records a confirmed-good outbound peer, moving a repeat to
// the back (most recently confirmed) and bounding the list.
func (n *Node) noteAnchor(a netip.AddrPort) {
	n.dropAnchor(a)
	n.anchors = append(n.anchors, a)
	if len(n.anchors) > maxAnchors {
		n.anchors = n.anchors[len(n.anchors)-maxAnchors:]
	}
}

// dropAnchor removes an address from the anchor list (dial failure: the
// anchor has churned away and must not be retried forever).
func (n *Node) dropAnchor(a netip.AddrPort) {
	for i, x := range n.anchors {
		if x == a {
			n.anchors = append(n.anchors[:i], n.anchors[i+1:]...)
			return
		}
	}
}

// pendingDial is one in-flight dial: its direction, and when it began
// for the dial trace span.
type pendingDial struct {
	dir     Direction
	started time.Time
}

// startDial records the attempt and hands the dial to the environment.
func (n *Node) startDial(na wire.NetAddress, dir Direction) {
	n.dialing[na.Addr] = pendingDial{dir: dir, started: n.env.Now()}
	n.met.dialAttempt.Inc()
	n.addrman.Attempt(na.Addr)
	n.emit(Event{Type: EvDialAttempt, Time: n.env.Now(), Dir: dir})
	n.env.Dial(na.Addr)
}

// OnDialResult is invoked by the environment when a dial completes.
func (n *Node) OnDialResult(remote netip.AddrPort, conn ConnID, err error) {
	if n.stopped {
		if err == nil {
			n.env.Disconnect(conn)
		}
		return
	}
	pending, ok := n.dialing[remote]
	dir := pending.dir
	if !ok {
		dir = Outbound
	}
	delete(n.dialing, remote)
	traceDial := func(detail string) {
		if n.tracer == nil || !ok {
			return
		}
		n.tracer.Emit(obs.Event{
			Time: n.env.Now(), Kind: "dial", From: n.cfg.Self.Addr,
			To: remote, Detail: detail, Dur: n.env.Now().Sub(pending.started),
		})
	}
	if err != nil {
		n.met.dialFail.Inc()
		traceDial(err.Error())
		n.armBackoff(remote)
		if n.pol.anchorsEnabled {
			n.dropAnchor(remote)
		}
		return
	}
	n.clearBackoff(remote)
	n.met.dialSuccess.Inc()
	traceDial("ok")
	n.emit(Event{Type: EvDialSuccess, Time: n.env.Now(), Dir: dir, Conn: conn})
	p := n.addPeer(conn, remote, dir)
	// The initiator speaks first: VERSION.
	n.queueMsg(p, n.versionMsg(), classControl)
}

// OnInbound is invoked by the environment when a remote peer connects.
// It returns false when the connection must be refused (capacity or
// unreachable policy).
func (n *Node) OnInbound(remote netip.AddrPort, conn ConnID) bool {
	if n.stopped || !n.cfg.Reachable {
		return false
	}
	_, inbound, _ := n.ConnCounts()
	if inbound >= maxInbound {
		return false
	}
	n.addPeer(conn, remote, Inbound)
	return true
}

// OnDisconnect is invoked by the environment when a connection closes.
func (n *Node) OnDisconnect(conn ConnID) {
	p := n.peerByConn(conn)
	if p == nil {
		return
	}
	n.removePeer(p)
	n.emit(Event{Type: EvConnClose, Time: n.env.Now(), Dir: p.dir, Conn: conn})
	// Blocks requested from this peer will never arrive; clear them so
	// they can be re-requested from another peer at the next header sync.
	n.clearInFlight(conn)
	// A dropped outbound connection frees a slot: try to refill promptly
	// rather than waiting out the idle maintenance interval.
	if p.dir == Outbound && !n.stopped {
		n.scheduleMaintenance(0)
	}
}

// OnMessage is invoked by the environment when a message arrives on conn.
// The message is queued into the peer's vProcessMsg equivalent and
// handled by the round-robin pump. It becomes the node's to keep: the
// node retains blocks and transactions, and transmits a fully wanted INV
// back as its GETDATA. So an environment must hand over a value it will
// never reuse or mutate (tcpnet uses wire.ReadMessage, never a pooled
// Decoder's borrowed message).
func (n *Node) OnMessage(conn ConnID, msg wire.Message) {
	if n.stopped {
		return
	}
	p := n.peerByConn(conn)
	if p == nil {
		return
	}
	now := n.env.Now()
	p.lastRecv = now
	p.pushRecv(msg)
	n.markReady(p)
	n.armPumpAt(now)
}

// peerByConn resolves a connection ID to its peer, or nil.
func (n *Node) peerByConn(conn ConnID) *Peer {
	if i, ok := n.slotOf[conn]; ok {
		return n.slots[i]
	}
	return nil
}

// addPeer registers a connection in the next slot (arrival order is the
// round-robin order).
func (n *Node) addPeer(conn ConnID, remote netip.AddrPort, dir Direction) *Peer {
	p := &Peer{
		id:        conn,
		addr:      remote,
		dir:       dir,
		connected: n.env.Now(),
		slot:      int32(len(n.slots)),
		known:     &n.known,
		bit:       n.known.takeBit(),
	}
	n.slotOf[conn] = p.slot
	n.slots = append(n.slots, p)
	if len(n.slots) > 64*len(n.ready) {
		n.ready = append(n.ready, 0)
	}
	n.byAddr[remote] = p
	switch dir {
	case Outbound:
		n.nOutbound++
	case Inbound:
		n.nInbound++
	case Feeler:
		n.nFeelers++
	}
	return p
}

// removePeer unregisters a connection, leaving a nil hole so slot indices
// stay stable for an in-progress pump iteration.
func (n *Node) removePeer(p *Peer) {
	i, ok := n.slotOf[p.id]
	if !ok || n.slots[i] != p {
		return
	}
	n.slots[i] = nil
	n.slotHoles++
	n.ready[i>>6] &^= 1 << (i & 63)
	p.slot = -1
	n.known.release(p.bit, p.nKnown > 0)
	p.bit = -1
	delete(n.slotOf, p.id)
	if n.byAddr[p.addr] == p {
		delete(n.byAddr, p.addr)
	}
	switch p.dir {
	case Outbound:
		n.nOutbound--
	case Inbound:
		n.nInbound--
	case Feeler:
		n.nFeelers--
	}
	n.maybeCompactSlots()
}

// maybeCompactSlots squeezes nil holes out of the slot array once they
// outnumber live peers. It never runs while the pump is iterating: slot
// indices must stay stable within one pump pass.
func (n *Node) maybeCompactSlots() {
	if n.inPump || n.slotHoles == 0 || n.slotHoles*2 < len(n.slots) {
		return
	}
	live := n.slots[:0]
	clear(n.ready)
	for _, p := range n.slots {
		if p != nil {
			p.slot = int32(len(live))
			n.slotOf[p.id] = p.slot
			live = append(live, p)
			if p.recvLen()+p.queueLen() > 0 {
				n.markReady(p)
			}
		}
	}
	for i := len(live); i < len(n.slots); i++ {
		n.slots[i] = nil
	}
	n.slots = live
	n.slotHoles = 0
}

// versionMsg builds this node's VERSION message.
func (n *Node) versionMsg() *wire.MsgVersion {
	return &wire.MsgVersion{
		ProtocolVersion: wire.ProtocolVersion,
		Services:        n.cfg.Self.Services,
		Timestamp:       n.env.Now(),
		AddrMe:          n.cfg.Self,
		Nonce:           n.env.Rand().Uint64(),
		UserAgent:       userAgent,
		StartHeight:     n.chain.Height(),
		Relay:           true,
	}
}
