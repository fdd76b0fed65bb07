package simnet

import (
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"repro/internal/node"
	"repro/internal/wire"
)

// Host is one simulated endpoint. Full-node hosts own a node.Node
// instance per online session; a black-hole stub only accepts dials.
// Host implements node.Env for its current node.
type Host struct {
	net  *Network
	addr netip.AddrPort
	// blackhole marks a stub that accepts connections and never speaks.
	blackhole bool
	nodeCfg   node.Config

	node   *node.Node
	online bool
	// epoch increments on every Start/Stop so callbacks scheduled for a
	// previous session become no-ops.
	epoch int

	links map[node.ConnID]*link
	rng   *rand.Rand
}

// Addr returns the host's address.
func (h *Host) Addr() netip.AddrPort { return h.addr }

// Online reports whether the host is currently up.
func (h *Host) Online() bool { return h.online }

// Node returns the current node instance (nil for stubs and offline
// full-node hosts).
func (h *Host) Node() *node.Node { return h.node }

// Config returns the node configuration template used at Start.
func (h *Host) Config() node.Config { return h.nodeCfg }

// SetConfig replaces the node configuration template used by the next
// Start (it does not affect a running node).
func (h *Host) SetConfig(cfg node.Config) { h.nodeCfg = cfg }

// Start brings the host online. Full-node hosts construct and start a
// fresh node instance (a restart models a node rejoining the network:
// its addrman starts from the configured seeds, and its chain from
// genesis).
func (h *Host) Start() {
	if h.online {
		return
	}
	h.online = true
	h.epoch++
	if h.blackhole {
		return
	}
	h.node = node.New(h.nodeCfg, h)
	h.node.Start()
}

// Stop takes the host offline, closing every link.
func (h *Host) Stop() {
	if !h.online {
		return
	}
	h.online = false
	h.epoch++
	// Close links under iteration: collect first, and close in ConnID
	// order, because each close runs node code that schedules events and
	// map order would differ from one process to the next.
	ids := make([]node.ConnID, 0, len(h.links))
	for id := range h.links {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		h.net.closeLink(h, id)
	}
	if h.node != nil {
		h.node.Stop()
		h.node = nil
	}
}

// --- node.Env implementation -------------------------------------------

var _ node.Env = (*Host)(nil)

// Now implements node.Env.
func (h *Host) Now() time.Time { return h.net.sched.Now() }

// Rand implements node.Env.
func (h *Host) Rand() *rand.Rand {
	if h.rng == nil {
		h.rng = rand.New(rand.NewSource(int64(addrHash(h.addr.Addr()))))
	}
	return h.rng
}

// Schedule implements node.Env. Callbacks are dropped if the host session
// that scheduled them has ended.
func (h *Host) Schedule(d time.Duration, fn func()) {
	h.net.sched.scheduleAfter(d, payload{fn: fn, host: h, epoch: h.epoch})
}

// Dial implements node.Env.
func (h *Host) Dial(remote netip.AddrPort) {
	h.net.dial(h, remote)
}

// Transmit implements node.Env.
func (h *Host) Transmit(conn node.ConnID, msg wire.Message, delay time.Duration) {
	h.net.transmit(h, conn, msg, delay)
}

// Disconnect implements node.Env.
func (h *Host) Disconnect(conn node.ConnID) {
	h.net.closeLink(h, conn)
}
