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

// relaySchedule selects how queued messages are scheduled across
// connections. The PolicySet names (stock, priority-relay,
// ideal-broadcast) are the only names for these schedules.
type relaySchedule int

// Relay schedules.
const (
	// roundRobin is Bitcoin Core's behaviour: one message per connection
	// per message-handler loop (Algorithm 3 in the paper).
	roundRobin relaySchedule = iota + 1
	// broadcast is the idealized lock-step model of the theoretical
	// literature: announcements leave to every connection simultaneously.
	broadcast
	// priorityOutbound is the paper's §V refinement: blocks jump the send
	// queue and outbound (always-reachable) connections are serviced
	// first.
	priorityOutbound
)

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
	// slots are filled, which keeps large simulations cheap. OnDisconnect
	// re-arms the loop at once when a remote peer closes an outbound
	// connection; a local eviction (disconnectPeer) does not, so the slot
	// it frees waits up to this long.
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
	backoff map[netip.AddrPort]backoffState
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
		backoff:        make(map[netip.AddrPort]backoffState),
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
