package node

import (
	"net/netip"
	"slices"
	"time"

	"repro/internal/wire"
)

// This file implements the node's connection-health machinery: keepalive
// pings with stall eviction, handshake timeouts, block-download stall
// detection, and the per-address reconnect backoff. Together these are
// the defences that keep a node syncing through the churn and message
// loss the paper identifies as the environment of the 2020 network.
// Their counts go to Config.Metrics (node.ping.sent, node.evict.*,
// node.backoff.armed).

// backoffState is the per-address reconnect schedule.
type backoffState struct {
	failures int
	until    time.Time
}

// maxBackoffEntries bounds the backoff map; on overflow expired entries
// are pruned, falling back to a reset if everything is live.
const maxBackoffEntries = 4096

// healthTick runs the periodic connection-health checks and reschedules
// itself. All eviction decisions are collected before acting so map and
// slice mutation never happens under iteration, and eviction order is
// deterministic (slot order for peers, ConnID order for block stalls).
func (n *Node) healthTick() {
	if n.stopped {
		return
	}
	now := n.env.Now()
	n.checkHandshakes(now)
	n.checkKeepalive(now)
	n.checkBlockStalls(now)
	n.env.Schedule(healthTickEvery, n.healthFn)
}

// checkHandshakes evicts peers that have not completed VERSION/VERACK
// within the handshake timeout — the defence against black-hole peers
// that accept a connection and then say nothing.
func (n *Node) checkHandshakes(now time.Time) {
	var stale []*Peer
	for _, p := range n.slots {
		if p == nil || p.handshook {
			continue
		}
		if now.Sub(p.connected) >= handshakeTimeout {
			stale = append(stale, p)
		}
	}
	for _, p := range stale {
		n.met.handshakeEvict.Inc()
		n.disconnectPeer(p)
	}
}

// checkKeepalive sends PINGs on idle connections and evicts peers whose
// outstanding PING has gone unanswered past the stall timeout — Bitcoin
// Core's PING_INTERVAL / TIMEOUT_INTERVAL pair.
func (n *Node) checkKeepalive(now time.Time) {
	var stalled []*Peer
	for _, p := range n.slots {
		if p == nil || !p.handshook {
			continue
		}
		if p.pingNonce != 0 {
			if now.Sub(p.pingSent) >= stallTimeout {
				stalled = append(stalled, p)
			}
			continue
		}
		idleSince := p.lastRecv
		if idleSince.IsZero() {
			idleSince = p.connected
		}
		if now.Sub(idleSince) >= pingInterval {
			nonce := n.env.Rand().Uint64()
			if nonce == 0 {
				nonce = 1 // zero means "no PING outstanding"
			}
			p.pingNonce = nonce
			p.pingSent = now
			n.met.pingsSent.Inc()
			n.queueMsg(p, &wire.MsgPing{Nonce: nonce}, classControl)
		}
	}
	for _, p := range stalled {
		n.met.stallEvict.Inc()
		n.disconnectPeer(p)
	}
}

// handlePong clears the outstanding keepalive when the nonce matches.
func (n *Node) handlePong(p *Peer, m *wire.MsgPong) {
	if p.pingNonce != 0 && m.Nonce == p.pingNonce {
		p.pingNonce = 0
	}
}

// checkBlockStalls evicts peers that have held a requested block past
// the block-stall timeout (the simplified form of Bitcoin Core's
// 2-minute stalling rule), so IBD can continue from another peer.
func (n *Node) checkBlockStalls(now time.Time) {
	// Collect each stalled connection once, deterministically despite map
	// iteration: gather the distinct ConnIDs, then evict in ConnID order.
	var stalled []ConnID
	for _, f := range n.blocksInFlight {
		if now.Sub(f.requested) >= blockStallTimeout && !slices.Contains(stalled, f.conn) {
			stalled = append(stalled, f.conn)
		}
	}
	slices.Sort(stalled)
	for _, conn := range stalled {
		p := n.peerByConn(conn)
		if p == nil {
			// Connection already gone; just clear its requests.
			n.clearInFlight(conn)
			continue
		}
		n.met.blockStallEvict.Inc()
		// disconnectPeer clears this conn's in-flight blocks and kicks a
		// header resync from another peer.
		n.disconnectPeer(p)
	}
}

// clearInFlight forgets blocks requested from conn (they will never
// arrive) and, if any were dropped mid-IBD, restarts header sync from
// another peer that is ahead so the download resumes.
func (n *Node) clearInFlight(conn ConnID) {
	cleared := 0
	for h, f := range n.blocksInFlight {
		if f.conn == conn {
			delete(n.blocksInFlight, h)
			cleared++
		}
	}
	if cleared == 0 || n.stopped || len(n.blocksInFlight) > 0 {
		return
	}
	// The download pipeline drained abnormally: resume from the first
	// handshook peer still ahead of our tip.
	for _, p := range n.slots {
		if p != nil && p.handshook && p.dir != Feeler && p.startHeight > n.chain.Height() {
			n.requestHeaders(p)
			return
		}
	}
}

// inBackoff reports whether addr is still inside its reconnect backoff
// window.
func (n *Node) inBackoff(addr netip.AddrPort) bool {
	st, ok := n.backoff[addr]
	return ok && n.env.Now().Before(st.until)
}

// armBackoff schedules the next allowed dial to addr after a failure:
// base×2^(failures−1), capped at max, then jittered ±50% so a network
// full of nodes does not retry in lockstep.
func (n *Node) armBackoff(addr netip.AddrPort) {
	st, ok := n.backoff[addr]
	if !ok {
		n.pruneBackoff()
	}
	st.failures++
	shift := st.failures - 1
	if shift > 16 {
		shift = 16
	}
	d := dialBackoffBase << uint(shift)
	if d > dialBackoffMax {
		d = dialBackoffMax
	}
	// Jitter uniformly in [d/2, 3d/2).
	d = d/2 + time.Duration(n.env.Rand().Int63n(int64(d)))
	st.until = n.env.Now().Add(d)
	n.backoff[addr] = st
	n.met.backoffArmed.Inc()
}

// clearBackoff resets addr's backoff after a successful dial.
func (n *Node) clearBackoff(addr netip.AddrPort) {
	delete(n.backoff, addr)
}

// pruneBackoff keeps the backoff map bounded: drop expired entries, and
// if everything is still live, reset — re-dialing early costs one wasted
// attempt, unbounded growth costs memory forever.
func (n *Node) pruneBackoff() {
	if len(n.backoff) < maxBackoffEntries {
		return
	}
	now := n.env.Now()
	for a, st := range n.backoff {
		if !now.Before(st.until) {
			delete(n.backoff, a)
		}
	}
	if len(n.backoff) >= maxBackoffEntries {
		n.backoff = make(map[netip.AddrPort]backoffState)
	}
}
