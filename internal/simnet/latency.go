package simnet

import (
	"encoding/binary"
	"net/netip"
	"time"

	"repro/internal/asmap"
	"repro/internal/chainhash"
)

// LatencyFunc returns the one-way propagation delay between two
// addresses. Implementations must be deterministic: the same pair always
// yields the same latency, which preserves per-link FIFO ordering in the
// event queue.
type LatencyFunc func(a, b netip.Addr) time.Duration

// ConstantLatency returns d for every pair.
func ConstantLatency(d time.Duration) LatencyFunc {
	return func(netip.Addr, netip.Addr) time.Duration { return d }
}

// addrHash produces a deterministic 64-bit hash of a single address —
// used where an outcome must be a property of one endpoint alone (e.g.
// the fastFailPct refusal/timeout split for dead addresses).
func addrHash(a netip.Addr) uint64 {
	return pairHash(a, a)
}

// pairHash produces a symmetric deterministic 64-bit hash of an address
// pair.
func pairHash(a, b netip.Addr) uint64 {
	if b.Less(a) {
		a, b = b, a
	}
	ab := a.As16()
	bb := b.As16()
	var buf [32]byte
	copy(buf[:16], ab[:])
	copy(buf[16:], bb[:])
	h := chainhash.DoubleSHA256(buf[:])
	return binary.LittleEndian.Uint64(h[:8])
}

// HashLatency draws a deterministic per-pair latency uniformly from
// [min, max].
func HashLatency(min, max time.Duration) LatencyFunc {
	if max < min {
		max = min
	}
	span := uint64(max - min)
	return func(a, b netip.Addr) time.Duration {
		if span == 0 {
			return min
		}
		return min + time.Duration(pairHash(a, b)%(span+1))
	}
}

// ASLatency models the paper's observation that Bitcoin latency is
// dominated by inter-AS routes: pairs within one AS see intra; pairs in
// different ASes see a deterministic per-AS-pair latency in
// [interMin, interMax]. Addresses the allocator cannot resolve fall back
// to the inter-AS range.
func ASLatency(al *asmap.IPAllocator, intra, interMin, interMax time.Duration) LatencyFunc {
	if interMax < interMin {
		interMax = interMin
	}
	span := uint64(interMax - interMin)
	return func(a, b netip.Addr) time.Duration {
		asnA, okA := al.ASNOf(a)
		asnB, okB := al.ASNOf(b)
		if okA && okB && asnA == asnB {
			return intra
		}
		if span == 0 {
			return interMin
		}
		return interMin + time.Duration(pairHash(a, b)%(span+1))
	}
}
