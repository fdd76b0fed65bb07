package faults

import (
	"net/netip"
	"sort"
	"time"

	"repro/internal/churn"
)

// This file scripts scenario timelines on top of the injector: scheduled
// crash/restart of hosts, crash waves, and timed partitions. Crash
// tracking feeds a churn.Matrix so chaos scenarios can be analyzed with
// the same presence-matrix machinery as the paper's §IV-D measurements.

// ScheduleCrash stops the host at addr after the given delay and
// restarts it downFor later (a restart rebuilds the node from its
// configured seeds and genesis, exactly like a real rejoin). A downFor
// of zero or less leaves the host down.
func (inj *Injector) ScheduleCrash(addr netip.AddrPort, at, downFor time.Duration) {
	inj.track(addr)
	sched := inj.net.Scheduler()
	sched.After(at, func() {
		h := inj.net.Host(addr)
		if h == nil || !h.Online() {
			return
		}
		h.Stop()
		inj.inc("faults.crash")
		inj.record(TraceEvent{Time: inj.net.Now(), Kind: "crash", From: addr})
		inj.markDown(addr)
		if downFor <= 0 {
			return
		}
		sched.After(downFor, func() {
			h.Start()
			inj.inc("faults.restart")
			inj.record(TraceEvent{Time: inj.net.Now(), Kind: "restart", From: addr})
			inj.markUp(addr)
		})
	})
}

// CrashWave schedules a crash for every address, staggered so restarts
// do not land on one scheduler instant: address i crashes at
// at + i×stagger, each down for downFor.
func (inj *Injector) CrashWave(addrs []netip.AddrPort, at, downFor, stagger time.Duration) {
	for i, a := range addrs {
		inj.ScheduleCrash(a, at+time.Duration(i)*stagger, downFor)
	}
}

// SchedulePartition applies the partition after the given delay and
// heals it healAfter later.
func (inj *Injector) SchedulePartition(at, healAfter time.Duration, groups ...[]netip.AddrPort) {
	sched := inj.net.Scheduler()
	sched.After(at, func() { inj.Partition(groups...) })
	sched.After(at+healAfter, func() { inj.Heal() })
}

// track registers addr for presence bookkeeping.
func (inj *Injector) track(addr netip.AddrPort) {
	if _, ok := inj.isDown[addr]; ok {
		return
	}
	inj.isDown[addr] = false
	inj.tracked = append(inj.tracked, addr)
}

// markDown opens a downtime interval for addr.
func (inj *Injector) markDown(addr netip.AddrPort) {
	if inj.isDown[addr] {
		return
	}
	inj.isDown[addr] = true
	inj.down[addr] = append(inj.down[addr], downInterval{from: inj.net.Now()})
}

// markUp closes the open downtime interval for addr.
func (inj *Injector) markUp(addr netip.AddrPort) {
	if !inj.isDown[addr] {
		return
	}
	inj.isDown[addr] = false
	ivs := inj.down[addr]
	ivs[len(ivs)-1].to = inj.net.Now()
}

// downAt reports whether addr was inside a recorded downtime at t.
func (inj *Injector) downAt(addr netip.AddrPort, t time.Time) bool {
	for _, iv := range inj.down[addr] {
		if t.Before(iv.from) {
			continue
		}
		if iv.to.IsZero() || t.Before(iv.to) {
			return true
		}
	}
	return false
}

// PresenceMatrix samples the crash-tracked hosts at the given cadence
// from injector creation until now, producing the paper's Algorithm 4
// binary presence matrix: the bridge between scripted chaos and the
// §IV-D churn analyses (persistent counts, transitions, lifetimes).
func (inj *Injector) PresenceMatrix(interval time.Duration) *churn.Matrix {
	addrs := make([]netip.AddrPort, len(inj.tracked))
	copy(addrs, inj.tracked)
	sort.Slice(addrs, func(i, j int) bool {
		if c := addrs[i].Addr().Compare(addrs[j].Addr()); c != 0 {
			return c < 0
		}
		return addrs[i].Port() < addrs[j].Port()
	})
	var times []time.Time
	for t := inj.start; !t.After(inj.net.Now()); t = t.Add(interval) {
		times = append(times, t)
	}
	return churn.Build(addrs, times, interval, func(i, j int) bool {
		return !inj.downAt(addrs[i], times[j])
	})
}
