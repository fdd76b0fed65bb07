package node

import (
	"net/netip"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// This file implements outbound dialing: the connection-maintenance and
// feeler ticks (Bitcoin Core's ThreadOpenConnections, §IV-B), dial-target
// selection from addrman and the anchor list, and dial results.

// openConnectionsTick fills empty outbound slots, one dial per tick, then
// reschedules itself — Bitcoin Core's ThreadOpenConnections cadence.
func (n *Node) openConnectionsTick() {
	if n.stopped {
		return
	}
	outbound, _, _ := n.ConnCounts()
	pendingOut := n.pendingDials(Outbound)
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
	if feelers+n.pendingDials(Feeler) < n.cfg.MaxFeelers {
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
		if n.dialable(na.Addr) && !n.inBackoff(na.Addr) {
			return na, true
		}
	}
	return wire.NetAddress{}, false
}

// selectAnchor returns the oldest anchor not already connected or being
// dialed. Anchors are kept in confirmation order, so the scan is
// deterministic.
func (n *Node) selectAnchor() (wire.NetAddress, bool) {
	for _, a := range n.anchors {
		if n.dialable(a) {
			return wire.NetAddress{
				Addr: a, Services: wire.SFNodeNetwork, Timestamp: n.env.Now(),
			}, true
		}
	}
	return wire.NetAddress{}, false
}

// dialable reports whether a is neither this node, nor a current peer,
// nor already being dialed.
func (n *Node) dialable(a netip.AddrPort) bool {
	if a == n.cfg.Self.Addr {
		return false
	}
	_, connected := n.byAddr[a]
	_, inFlight := n.dialing[a]
	return !connected && !inFlight
}

// pendingDials counts the in-flight dials of direction dir.
func (n *Node) pendingDials(dir Direction) int {
	pending := 0
	for _, d := range n.dialing {
		if d.dir == dir {
			pending++
		}
	}
	return pending
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
