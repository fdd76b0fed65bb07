package node

import (
	"net/netip"
	"sort"
	"time"

	"repro/internal/chainhash"
	"repro/internal/wire"
)

// This file implements the node's connection-health machinery: keepalive
// pings with stall eviction, handshake timeouts, block-download stall
// detection, and the per-address reconnect backoff. Together these are
// the defences that keep a node syncing through the churn and message
// loss the paper identifies as the environment of the 2020 network.

// HealthStats aggregates robustness counters for measurement code.
type HealthStats struct {
	// PingsSent counts keepalive PING messages sent on idle connections.
	PingsSent int
	// StallEvictions counts peers dropped for an unanswered keepalive.
	StallEvictions int
	// HandshakeEvictions counts peers dropped for never completing
	// VERSION/VERACK.
	HandshakeEvictions int
	// BlockStallEvictions counts peers dropped for sitting on a
	// requested block past the block-stall timeout.
	BlockStallEvictions int
	// BackoffsArmed counts failed dials that armed (or extended) a
	// per-address reconnect backoff.
	BackoffsArmed int
}

// Health returns the node's robustness counters since start.
func (n *Node) Health() HealthStats { return n.health }

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
// deterministic (slot order for peers, sorted hashes for blocks).
func (n *Node) healthTick() {
	if n.stopped {
		return
	}
	now := n.env.Now()
	n.checkHandshakes(now)
	n.checkKeepalive(now)
	n.checkBlockStalls(now)
	n.env.Schedule(healthTickEvery, n.healthTick)
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
		n.health.HandshakeEvictions++
		n.met.handshakeEvict.Inc()
		n.emit(Event{
			Type: EvHandshakeTimeout, Time: now, Node: n.cfg.Self.Addr,
			Peer: p.addr, Dir: p.dir, Conn: p.id,
		})
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
			n.health.PingsSent++
			n.met.pingsSent.Inc()
			n.queueMsg(p, &wire.MsgPing{Nonce: nonce}, classControl)
		}
	}
	for _, p := range stalled {
		n.health.StallEvictions++
		n.met.stallEvict.Inc()
		n.emit(Event{
			Type: EvPeerStalled, Time: now, Node: n.cfg.Self.Addr,
			Peer: p.addr, Dir: p.dir, Conn: p.id,
		})
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
	// Collect the oldest stalled request per connection, deterministically
	// despite map iteration: gather then sort by (conn, hash).
	type stall struct {
		conn ConnID
		hash chainhash.Hash
	}
	var stalls []stall
	for h, f := range n.blocksInFlight {
		if now.Sub(f.requested) >= blockStallTimeout {
			stalls = append(stalls, stall{f.conn, h})
		}
	}
	if len(stalls) == 0 {
		return
	}
	sort.Slice(stalls, func(i, j int) bool {
		if stalls[i].conn != stalls[j].conn {
			return stalls[i].conn < stalls[j].conn
		}
		return stalls[i].hash.String() < stalls[j].hash.String()
	})
	evicted := make(map[ConnID]bool)
	for _, s := range stalls {
		if evicted[s.conn] {
			continue
		}
		evicted[s.conn] = true
		p := n.peerByConn(s.conn)
		if p == nil {
			// Connection already gone; just clear its requests.
			n.clearInFlight(s.conn)
			continue
		}
		n.health.BlockStallEvictions++
		n.met.blockStallEvict.Inc()
		n.emit(Event{
			Type: EvBlockStalled, Time: now, Node: n.cfg.Self.Addr,
			Peer: p.addr, Dir: p.dir, Conn: p.id, Hash: s.hash,
		})
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
	st := n.backoff[addr]
	if st == nil {
		n.pruneBackoff()
		st = &backoffState{}
		n.backoff[addr] = st
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
	n.health.BackoffsArmed++
	n.met.backoffArmed.Inc()
	n.emit(Event{
		Type: EvDialBackoff, Time: n.env.Now(), Node: n.cfg.Self.Addr,
		Peer: addr, Delay: d, Count: st.failures,
	})
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
		n.backoff = make(map[netip.AddrPort]*backoffState)
	}
}
