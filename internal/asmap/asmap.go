// Package asmap provides the autonomous-system substrate for the
// simulated network: a weighted AS sampler for placing nodes, a
// deterministic IP allocator that embeds the AS assignment into the
// address space (so analyses can recover ASNs from bare IPs, as the paper
// does with real BGP data), and census/coverage analytics used to
// reproduce Table I and the §IV-A1 routing-attack revision.
package asmap

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"sync"
)

// Distribution is a weighted sampler over ASNs.
type Distribution struct {
	asns []uint32
	cum  []float64 // cumulative weights, last element is the total
}

// NewDistribution builds a sampler from per-ASN weights. Weights need not
// sum to 1; non-positive weights are ignored. It returns an error when no
// positive weight remains.
func NewDistribution(weights map[uint32]float64) (*Distribution, error) {
	asns := make([]uint32, 0, len(weights))
	for asn, w := range weights {
		if w > 0 {
			asns = append(asns, asn)
		}
	}
	if len(asns) == 0 {
		return nil, fmt.Errorf("asmap: no positive weights among %d ASNs", len(weights))
	}
	// Deterministic ordering so identical inputs build identical samplers.
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	cum := make([]float64, len(asns))
	total := 0.0
	for i, asn := range asns {
		total += weights[asn]
		cum[i] = total
	}
	return &Distribution{asns: asns, cum: cum}, nil
}

// Sample draws an ASN according to the weights.
func (d *Distribution) Sample(rng *rand.Rand) uint32 {
	target := rng.Float64() * d.cum[len(d.cum)-1]
	idx := sort.SearchFloat64s(d.cum, target)
	if idx >= len(d.asns) {
		idx = len(d.asns) - 1
	}
	return d.asns[idx]
}

// PowerLawWeights builds an AS weight map with a fixed "head" (ASN →
// fractional share, e.g. the paper's Table I top-20) and a Zipf-like tail
// of tailCount synthetic ASes (ASNs starting at tailBase) sharing the
// remaining mass with weight ∝ 1/rank^alpha.
func PowerLawWeights(head map[uint32]float64, tailCount int, tailBase uint32, alpha float64) map[uint32]float64 {
	weights := make(map[uint32]float64, len(head)+tailCount)
	headMass := 0.0
	for asn, share := range head {
		weights[asn] = share
		headMass += share
	}
	tailMass := 1.0 - headMass
	if tailMass <= 0 || tailCount <= 0 {
		return weights
	}
	// Normalize the zipf tail to tailMass.
	raw := make([]float64, tailCount)
	sum := 0.0
	for i := range raw {
		raw[i] = 1.0 / math.Pow(float64(i+1), alpha)
		sum += raw[i]
	}
	for i, w := range raw {
		weights[tailBase+uint32(i)] = tailMass * w / sum
	}
	return weights
}

// IPAllocator deterministically allocates IPv4 addresses such that the
// owning AS is recoverable from the address alone. Address layout:
// addresses for the i-th registered AS occupy the contiguous block
// [base + i*hostsPerAS, base + (i+1)*hostsPerAS).
type IPAllocator struct {
	mu         sync.Mutex
	asns       []uint32
	index      map[uint32]int
	next       map[uint32]uint32
	hostsPerAS uint32
	base       uint32
}

// DefaultHostsPerAS is the default per-AS address block size.
const DefaultHostsPerAS = 1 << 17 // 131072 hosts per AS

// ipBase is 1.0.0.0; keeps allocations out of the 0.0.0.0/8 range.
const ipBase = uint32(1) << 24

// NewIPAllocator creates an allocator with the given per-AS block size
// (DefaultHostsPerAS when 0).
func NewIPAllocator(hostsPerAS uint32) *IPAllocator {
	if hostsPerAS == 0 {
		hostsPerAS = DefaultHostsPerAS
	}
	return &IPAllocator{
		index:      make(map[uint32]int),
		next:       make(map[uint32]uint32),
		hostsPerAS: hostsPerAS,
		base:       ipBase,
	}
}

// Alloc returns a fresh IPv4 address within asn's block. It returns an
// error when the block is exhausted or the address space overflows.
func (al *IPAllocator) Alloc(asn uint32) (netip.Addr, error) {
	al.mu.Lock()
	defer al.mu.Unlock()
	idx, ok := al.index[asn]
	if !ok {
		idx = len(al.asns)
		al.index[asn] = idx
		al.asns = append(al.asns, asn)
	}
	host := al.next[asn]
	if host >= al.hostsPerAS {
		return netip.Addr{}, fmt.Errorf("asmap: AS%d block exhausted (%d hosts)", asn, al.hostsPerAS)
	}
	al.next[asn] = host + 1
	v := al.base + uint32(idx)*al.hostsPerAS + host
	if v < al.base {
		return netip.Addr{}, fmt.Errorf("asmap: IPv4 space exhausted for AS%d", asn)
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return netip.AddrFrom4(b), nil
}

// ASNOf recovers the AS owning ip, if ip was produced by this allocator.
func (al *IPAllocator) ASNOf(ip netip.Addr) (uint32, bool) {
	if !ip.Is4() {
		return 0, false
	}
	b := ip.As4()
	v := binary.BigEndian.Uint32(b[:])
	if v < al.base {
		return 0, false
	}
	al.mu.Lock()
	defer al.mu.Unlock()
	idx := int((v - al.base) / al.hostsPerAS)
	if idx >= len(al.asns) {
		return 0, false
	}
	return al.asns[idx], true
}

// ASShare is one row of an AS census: an AS and its node share.
type ASShare struct {
	// ASN is the autonomous system number.
	ASN uint32
	// Count is the number of nodes hosted.
	Count int
	// Pct is the percentage of the census total.
	Pct float64
}

// Census counts nodes per AS and answers the coverage questions the paper
// asks (how many ASes must be hijacked to isolate X% of nodes).
type Census struct {
	counts map[uint32]int
	total  int
}

// NewCensus returns an empty census.
func NewCensus() *Census {
	return &Census{counts: make(map[uint32]int)}
}

// Add records one node hosted in asn.
func (c *Census) Add(asn uint32) {
	c.counts[asn]++
	c.total++
}

// Total returns the number of recorded nodes.
func (c *Census) Total() int { return c.total }

// NumASes returns the number of distinct ASes observed.
func (c *Census) NumASes() int { return len(c.counts) }

// sorted returns shares ordered by count descending (ASN ascending on
// ties, for determinism).
func (c *Census) sorted() []ASShare {
	out := make([]ASShare, 0, len(c.counts))
	for asn, n := range c.counts {
		pct := 0.0
		if c.total > 0 {
			pct = 100 * float64(n) / float64(c.total)
		}
		out = append(out, ASShare{ASN: asn, Count: n, Pct: pct})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].ASN < out[j].ASN
	})
	return out
}

// TopN returns the n largest ASes by hosted-node count.
func (c *Census) TopN(n int) []ASShare {
	s := c.sorted()
	if n > len(s) {
		n = len(s)
	}
	return s[:n]
}

// CoverageCount returns how many of the largest ASes are needed to host
// at least frac (0..1) of all nodes — the paper's hijack-budget metric.
func (c *Census) CoverageCount(frac float64) int {
	if c.total == 0 {
		return 0
	}
	need := frac * float64(c.total)
	acc := 0.0
	for i, s := range c.sorted() {
		acc += float64(s.Count)
		if acc >= need {
			return i + 1
		}
	}
	return len(c.counts)
}

// Share returns the percentage of nodes hosted by asn.
func (c *Census) Share(asn uint32) float64 {
	if c.total == 0 {
		return 0
	}
	return 100 * float64(c.counts[asn]) / float64(c.total)
}
