// Package faults is a deterministic, seeded fault-injection layer for
// the simulated network. It implements simnet.Injector, intercepting the
// dial and transmit paths with message drop, duplication, latency spikes
// (which double as reordering, since unspiked messages overtake spiked
// ones), and dial failures; on top of that it scripts network partitions
// with heal and node crash/restart schedules.
//
// The paper's root causes — churned peers, black-holed routes, and
// messages that silently vanish — are exactly the adversities this layer
// reproduces, so the chaos tests can demonstrate that the node-side
// defences (keepalive, stall eviction, reconnect backoff) recover
// synchronization once conditions improve.
//
// Determinism: the injector draws from its own seeded source, and the
// simnet scheduler invokes it in a deterministic order, so a given seed
// always produces the identical fault schedule, event trace, and
// counters. The chaos tests pin this by running scenarios twice and
// comparing traces.
package faults

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// Profile sets the probabilistic fault rates every link runs under
// (Config.Default). Probabilities are in [0, 1]; the zero Profile injects
// nothing.
type Profile struct {
	// Drop is the probability a message is silently discarded.
	Drop float64
	// Duplicate is the probability a message is delivered twice, the
	// copy arriving DuplicateDelay after the original (50 ms when zero).
	Duplicate      float64
	DuplicateDelay time.Duration
	// Spike is the probability a message suffers an extra latency spike
	// drawn uniformly from [SpikeMin, SpikeMax]. Because only the spiked
	// message is delayed, later traffic on the link overtakes it:
	// spikes double as reordering faults.
	Spike    float64
	SpikeMin time.Duration
	SpikeMax time.Duration
	// DialFail is the probability a connection attempt is refused at
	// the fault layer before reaching the target.
	DialFail float64
}

// zero reports whether the profile injects nothing.
func (p Profile) zero() bool {
	return p.Drop == 0 && p.Duplicate == 0 && p.Spike == 0 && p.DialFail == 0
}

// Config parameterizes an Injector.
type Config struct {
	// Seed drives all fault randomness.
	Seed int64
	// Default is the profile applied to every link.
	Default Profile
	// Metrics hosts the fault counters (faults.* names), so one registry
	// covers the whole experiment. Nil discards the counts.
	Metrics *obs.Registry
	// Tracer receives the fault events, interleaving them with node and
	// network events in one timeline. Nil discards the events.
	Tracer *obs.Tracer
}

// TraceEvent is one recorded fault or scenario action — an alias of the
// observability layer's event record, so fault events interleave with
// node spans in one shared trace. Traces from two same-seed runs of a
// deterministic scenario compare equal. Kinds emitted here: drop, dup,
// spike, dial-refuse, blocked, dial-blocked, partition, heal, blackhole,
// restore, crash, restart.
type TraceEvent = obs.Event

// faultCounterNames lists every counter the injector maintains. New
// registers them all up front, so a registry snapshot carries each one,
// zero or not.
var faultCounterNames = []string{
	"faults.blackhole",
	"faults.crash",
	"faults.dial.blocked",
	"faults.dial.refused",
	"faults.heal",
	"faults.partition",
	"faults.restart",
	"faults.restore",
	"faults.transmit.blocked",
	"faults.transmit.dropped",
	"faults.transmit.duplicated",
	"faults.transmit.spiked",
}

// Injector is the fault layer. Construct with New; all methods must be
// called from the scheduler goroutine (scenario setup before Run, or
// scheduled callbacks), like everything else touching a simnet.
type Injector struct {
	net *simnet.Network
	cfg Config
	rng *rand.Rand

	disabled bool
	// groups is the active partition: addresses in different non-zero
	// groups cannot exchange anything. Absent addresses (group 0) are
	// unrestricted.
	groups map[netip.Addr]int
	// blackholed addresses lose every message and dial in both
	// directions, modelling a fully black-holed route to the host.
	blackholed map[netip.Addr]bool

	counters map[string]*obs.Counter

	// Crash/restart presence tracking for PresenceMatrix.
	start   time.Time
	tracked []netip.AddrPort
	isDown  map[netip.AddrPort]bool
	down    map[netip.AddrPort][]downInterval
}

// downInterval is one offline stretch of a tracked host. End is zero
// while the host is still down.
type downInterval struct{ from, to time.Time }

var _ simnet.Injector = (*Injector)(nil)

// New creates an injector and installs it on the network.
func New(net *simnet.Network, cfg Config) *Injector {
	counters := make(map[string]*obs.Counter, len(faultCounterNames))
	for _, name := range faultCounterNames {
		counters[name] = cfg.Metrics.Counter(name)
	}
	inj := &Injector{
		net:        net,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		groups:     make(map[netip.Addr]int),
		blackholed: make(map[netip.Addr]bool),
		counters:   counters,
		start:      net.Now(),
		isDown:     make(map[netip.AddrPort]bool),
		down:       make(map[netip.AddrPort][]downInterval),
	}
	net.SetInjector(inj)
	return inj
}

// SetEnabled turns the whole fault layer on or off (it starts enabled).
// Scenarios disable it near the end so the tail of the run converges
// under clean conditions.
func (inj *Injector) SetEnabled(enabled bool) { inj.disabled = !enabled }

// Partition splits the network: addresses in different groups cannot
// dial or message each other. Addresses in no group are unrestricted
// (they talk to everyone). A new call replaces the previous partition.
func (inj *Injector) Partition(groups ...[]netip.AddrPort) {
	inj.groups = make(map[netip.Addr]int)
	for i, g := range groups {
		for _, a := range g {
			inj.groups[a.Addr()] = i + 1
		}
	}
	inj.inc("faults.partition")
	inj.record(TraceEvent{
		Time: inj.net.Now(), Kind: "partition",
		Detail: fmt.Sprintf("groups=%d", len(groups)),
	})
}

// Heal removes the active partition.
func (inj *Injector) Heal() {
	inj.groups = make(map[netip.Addr]int)
	inj.inc("faults.heal")
	inj.record(TraceEvent{Time: inj.net.Now(), Kind: "heal"})
}

// Blackhole makes every route to and from addr lose everything: dials
// time out, established links go silent, but nothing is closed — the
// host looks alive to itself and dead to everyone else.
func (inj *Injector) Blackhole(addr netip.Addr) {
	inj.blackholed[addr] = true
	inj.inc("faults.blackhole")
	inj.record(TraceEvent{
		Time: inj.net.Now(), Kind: "blackhole",
		From: netip.AddrPortFrom(addr, 0),
	})
}

// Restore lifts a Blackhole.
func (inj *Injector) Restore(addr netip.Addr) {
	delete(inj.blackholed, addr)
	inj.inc("faults.restore")
	inj.record(TraceEvent{
		Time: inj.net.Now(), Kind: "restore",
		From: netip.AddrPortFrom(addr, 0),
	})
}

// blocked reports whether the route between from and to is severed by a
// partition or blackhole.
func (inj *Injector) blocked(from, to netip.AddrPort) bool {
	if inj.blackholed[from.Addr()] || inj.blackholed[to.Addr()] {
		return true
	}
	gf, gt := inj.groups[from.Addr()], inj.groups[to.Addr()]
	return gf != 0 && gt != 0 && gf != gt
}

// FilterDial implements simnet.Injector.
func (inj *Injector) FilterDial(from, to netip.AddrPort) simnet.DialVerdict {
	if inj.disabled {
		return simnet.DialProceed
	}
	if inj.blocked(from, to) {
		inj.inc("faults.dial.blocked")
		inj.record(TraceEvent{
			Time: inj.net.Now(), Kind: "dial-blocked", From: from, To: to,
		})
		return simnet.DialBlock
	}
	p := inj.cfg.Default
	if p.DialFail > 0 && inj.rng.Float64() < p.DialFail {
		inj.inc("faults.dial.refused")
		inj.record(TraceEvent{
			Time: inj.net.Now(), Kind: "dial-refuse", From: from, To: to,
		})
		return simnet.DialRefuse
	}
	return simnet.DialProceed
}

// FilterTransmit implements simnet.Injector.
func (inj *Injector) FilterTransmit(from, to netip.AddrPort, msg wire.Message) simnet.TransmitVerdict {
	if inj.disabled {
		return simnet.TransmitVerdict{}
	}
	if inj.blocked(from, to) {
		inj.inc("faults.transmit.blocked")
		inj.record(TraceEvent{
			Time: inj.net.Now(), Kind: "blocked", From: from, To: to,
			Detail: msg.Command(),
		})
		return simnet.TransmitVerdict{Drop: true}
	}
	p := inj.cfg.Default
	if p.zero() {
		return simnet.TransmitVerdict{}
	}
	if p.Drop > 0 && inj.rng.Float64() < p.Drop {
		inj.inc("faults.transmit.dropped")
		inj.record(TraceEvent{
			Time: inj.net.Now(), Kind: "drop", From: from, To: to,
			Detail: msg.Command(),
		})
		return simnet.TransmitVerdict{Drop: true}
	}
	var verdict simnet.TransmitVerdict
	if p.Spike > 0 && inj.rng.Float64() < p.Spike {
		span := p.SpikeMax - p.SpikeMin
		extra := p.SpikeMin
		if span > 0 {
			extra += time.Duration(inj.rng.Int63n(int64(span)))
		}
		verdict.ExtraDelay = extra
		inj.inc("faults.transmit.spiked")
		inj.record(TraceEvent{
			Time: inj.net.Now(), Kind: "spike", From: from, To: to,
			Detail: fmt.Sprintf("%s +%v", msg.Command(), extra),
		})
	}
	if p.Duplicate > 0 && inj.rng.Float64() < p.Duplicate {
		verdict.Duplicate = true
		verdict.DuplicateDelay = p.DuplicateDelay
		if verdict.DuplicateDelay == 0 {
			verdict.DuplicateDelay = 50 * time.Millisecond
		}
		inj.inc("faults.transmit.duplicated")
		inj.record(TraceEvent{
			Time: inj.net.Now(), Kind: "dup", From: from, To: to,
			Detail: msg.Command(),
		})
	}
	return verdict
}

// inc bumps one of the pre-registered fault counters.
func (inj *Injector) inc(name string) { inj.counters[name].Inc() }

// record emits a trace event into the (possibly shared) tracer.
func (inj *Injector) record(ev TraceEvent) { inj.cfg.Tracer.Emit(ev) }
