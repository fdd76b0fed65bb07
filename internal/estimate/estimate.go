// Package estimate implements the two Grundmann et al. inference
// methods that live-network researchers use to see past the crawler's
// horizon, adapted to this repository's crawl observations so the
// simulator — which knows the true population — can benchmark them:
//
//   - Unreachable-peer-count estimation from ADDR announcements
//     (arXiv:2102.12774): every unreachable address carried in an ADDR
//     response is modelled as a uniform draw from the hidden
//     gossip-visible population, and the population size is recovered
//     from announcement recurrence — how often draws repeat addresses
//     already seen — by inverting the expected-coverage curve.
//
//   - Peer-degree estimation from GETADDR return sampling
//     (arXiv:2108.00815): a Bitcoin Core node answers GETADDR with
//     min(23% of its address tables, 1000) addresses, so the response
//     size is a linear probe of the table size, and repeated exchanges
//     enumerate distinct addresses up to the full table. Both are lower
//     bounds that converge to the true degree from below.
//
// The package is a leaf: it depends only on the wire types and the
// metrics registry, consumes observations through plain method calls
// (the crawler's Observer seam feeds it in deterministic merge order),
// and performs no I/O. Every estimate is guaranteed finite and
// non-negative on arbitrary input streams — a property the fuzz target
// FuzzEstimateObservations pins — and every ratio is guarded against
// zero-observation division.
package estimate

import (
	"math"
	"net/netip"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Defaults mirror Bitcoin Core's GETADDR response policy (and
// internal/addrman's constants): a response carries at most
// GetAddrMaxPct percent of the responder's known addresses, hard-capped
// at GetAddrMax entries.
const (
	// DefaultGetAddrMaxPct is the percentage of the address tables
	// returned per GETADDR.
	DefaultGetAddrMaxPct = 23
	// DefaultGetAddrMax is the hard cap on addresses per response.
	DefaultGetAddrMax = 1000
)

// maxPopulation caps the recurrence inversion when no (or almost no)
// recurrence has been observed yet: the maximum-likelihood estimate
// diverges there, and the estimator contract is to stay finite.
const maxPopulation = 1e12

// Config tunes a Collector. Its degree estimator assumes the Bitcoin Core
// GETADDR policy above.
type Config struct {
	// IsReachable classifies an announced address against the
	// known-reachable reference set: addresses for which it returns true
	// are excluded from the unreachable-population sample (the crawl's
	// N_u definition). Nil treats every announcement as unreachable.
	IsReachable func(netip.AddrPort) bool
	// Metrics, when set, receives the est.* observation counters
	// (est.exchanges, est.announcements, est.announcements.unreachable,
	// est.sources). Nil disables instrumentation.
	Metrics *obs.Registry
}

// PopulationEstimator recovers the size of the hidden unreachable
// population from announcement recurrence. Each observed announcement
// is one (source, address) pair; announcements are deduplicated per
// source, because a node's address book is paged repeatedly by the
// iterative crawl and a re-served page is a re-observation of the same
// draw, not evidence about the population. Self-referential
// announcements (a node advertising itself) are discarded for the same
// reason. What remains is, under the gossip model, a sequence of
// uniform draws from the visible unreachable population; the estimate
// inverts the expected coverage curve
//
//	E[distinct] = N·(1 − (1 − 1/N)^total)
//
// for N given the observed (distinct, total) pair.
type PopulationEstimator struct {
	perSource map[netip.AddrPort]map[netip.AddrPort]struct{}
	seen      map[netip.AddrPort]struct{}
	distinct  int
	total     int
}

// NewPopulationEstimator creates an empty estimator.
func NewPopulationEstimator() *PopulationEstimator {
	return &PopulationEstimator{
		perSource: make(map[netip.AddrPort]map[netip.AddrPort]struct{}),
		seen:      make(map[netip.AddrPort]struct{}),
	}
}

// Observe ingests one announcement of addr by source. Self-referential
// and per-source-duplicate announcements are ignored; the method
// reports whether the announcement was counted as a fresh draw.
func (e *PopulationEstimator) Observe(source, addr netip.AddrPort) bool {
	if source == addr {
		return false
	}
	srcSeen := e.perSource[source]
	if srcSeen == nil {
		srcSeen = make(map[netip.AddrPort]struct{})
		e.perSource[source] = srcSeen
	}
	if _, dup := srcSeen[addr]; dup {
		return false
	}
	srcSeen[addr] = struct{}{}
	e.total++
	if _, dup := e.seen[addr]; !dup {
		e.seen[addr] = struct{}{}
		e.distinct++
	}
	return true
}

// Total returns the number of counted draws (per-source deduplicated
// announcements).
func (e *PopulationEstimator) Total() int { return e.total }

// Estimate returns the population estimate. It is always finite and
// non-negative: zero before any observation, and capped when no
// recurrence has been observed yet (where the MLE diverges).
func (e *PopulationEstimator) Estimate() float64 {
	return InvertRecurrence(float64(e.distinct), float64(e.total))
}

// InvertRecurrence solves E[distinct] = N·(1 − (1 − 1/N)^total) for N
// given an observed (distinct, total) pair. The coverage function is
// strictly increasing in N, so the inversion is a bisection. Degenerate
// inputs collapse safely: non-positive (or NaN) counts return 0, and a
// stream with no recurrence at all (distinct == total, where the MLE is
// unbounded) returns the finite all-singletons fallback
// d + d·(d−1)/2 — the Chao1 richness bound with no observed doubletons.
func InvertRecurrence(distinct, total float64) float64 {
	d, t := distinct, total
	if !(d > 0) || !(t > 0) || math.IsInf(d, 0) || math.IsInf(t, 0) {
		return 0
	}
	if d > t {
		// More distinct addresses than draws is impossible under the
		// model; clamp defensively (arbitrary streams may claim it).
		d = t
	}
	if d == 1 {
		return 1
	}
	if d >= t {
		est := d + d*(d-1)/2
		return math.Min(est, maxPopulation)
	}
	// Bracket: coverage(N) < d for small N, > d for large N.
	lo, hi := d, 2*d
	for expectedCoverage(hi, t) < d {
		if hi >= maxPopulation {
			return maxPopulation
		}
		lo = hi
		hi *= 2
	}
	for i := 0; i < 200 && hi-lo > 1e-9*hi; i++ {
		mid := lo + (hi-lo)/2
		if expectedCoverage(mid, t) < d {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}

// expectedCoverage is E[distinct] after t uniform draws (with
// replacement) from a population of n addresses.
func expectedCoverage(n, t float64) float64 {
	if n <= 1 {
		return math.Min(n, 1)
	}
	return n * (1 - math.Exp(t*math.Log1p(-1/n)))
}

// sourceDegree is the per-peer degree-estimation state.
type sourceDegree struct {
	distinct map[netip.AddrPort]struct{}
	// first is the first observed response size — the GETADDR percentage
	// probe; -1 until an exchange has been seen.
	first int
	// exchanges counts observed exchanges.
	exchanges int
	// drained records that an exchange added no new address: the
	// responder's tables repeated, so distinct enumerates them exactly.
	drained bool
}

// SourceDegree is one peer's degree-estimation outcome.
type SourceDegree struct {
	// Source is the crawled peer.
	Source netip.AddrPort
	// Estimate is the combined estimate (see DegreeEstimator).
	Estimate float64
	// Ratio is the single-exchange probe estimate
	// first·100/GetAddrMaxPct — what a one-shot GETADDR measurement
	// yields without iterative sampling.
	Ratio float64
	// Distinct is the number of distinct addresses enumerated.
	Distinct int
	// Exchanges counts the observed GETADDR exchanges.
	Exchanges int
	// Drained reports whether an exchange repeated entirely — under
	// paged serving, the signal that Distinct enumerates the tables
	// exactly.
	Drained bool
}

// DegreeEstimator estimates each crawled peer's gossip out-degree — the
// number of distinct addresses its tables reveal — from GETADDR return
// sampling. Two lower bounds are combined:
//
//   - the percentage probe: the first response holds
//     min(⌈pct·n/100⌉, cap) addresses, so first·100/pct ≤ n whenever
//     the tables hold at least 100/pct addresses;
//   - the enumeration: the distinct addresses seen so far, which grows
//     monotonically to n as exchanges page through the tables.
//
// The estimate is the maximum of the two. Both are lower bounds on the
// true degree whenever responses respect the pct/cap contract, and the
// enumeration only grows, so the estimate never decreases and its error
// is monotone non-increasing in the number of exchanges — a property
// the property-test suite asserts round by round on arbitrary
// contract-respecting streams. Under paged (without-replacement)
// serving — the popsim session model — a repeat exchange sets Drained
// and the enumeration equals the true degree exactly, so the estimate
// is exact at Algorithm 1 termination. The one caveat is books smaller
// than 100/pct addresses (< 5 at the Bitcoin Core 23%), where a
// responder serves its whole book in one response and the ratio probe
// over-certifies; simulation books are well past that floor.
type DegreeEstimator struct {
	pct, cap int
	sources  map[netip.AddrPort]*sourceDegree
	order    []netip.AddrPort // first-observation order, for deterministic iteration
}

// NewDegreeEstimator creates an estimator for the given GETADDR policy
// (zero values select the Bitcoin Core defaults).
func NewDegreeEstimator(pct, cap int) *DegreeEstimator {
	if pct <= 0 {
		pct = DefaultGetAddrMaxPct
	}
	if cap <= 0 {
		cap = DefaultGetAddrMax
	}
	return &DegreeEstimator{
		pct:     pct,
		cap:     cap,
		sources: make(map[netip.AddrPort]*sourceDegree),
	}
}

// ObserveExchange ingests one GETADDR→ADDR exchange from source. A
// zero-length response carries no information and is ignored (it is not
// evidence of drained tables — a refused or empty reply is not a
// repeat). It reports whether this created a new source.
func (e *DegreeEstimator) ObserveExchange(source netip.AddrPort, addrs []netip.AddrPort) bool {
	if len(addrs) == 0 {
		return false
	}
	st := e.sources[source]
	created := false
	if st == nil {
		st = &sourceDegree{distinct: make(map[netip.AddrPort]struct{}), first: -1}
		e.sources[source] = st
		e.order = append(e.order, source)
		created = true
	}
	if st.first < 0 {
		st.first = len(addrs)
	}
	st.exchanges++
	fresh := 0
	for _, a := range addrs {
		if _, dup := st.distinct[a]; dup {
			continue
		}
		st.distinct[a] = struct{}{}
		fresh++
	}
	if fresh == 0 {
		st.drained = true
	}
	return created
}

// estimateOf computes one source's SourceDegree.
func (e *DegreeEstimator) estimateOf(source netip.AddrPort, st *sourceDegree) SourceDegree {
	out := SourceDegree{
		Source:    source,
		Distinct:  len(st.distinct),
		Exchanges: st.exchanges,
		Drained:   st.drained,
	}
	probe := st.first
	if probe > e.cap {
		probe = e.cap // over-cap responses still only certify cap·100/pct
	}
	out.Ratio = float64(probe) * 100 / float64(e.pct)
	out.Estimate = math.Max(float64(out.Distinct), out.Ratio)
	return out
}

// Estimates returns the per-source outcomes in first-observation order —
// which, fed from the crawler's merge loop, is crawl target order, so
// the listing is deterministic at any worker count.
func (e *DegreeEstimator) Estimates() []SourceDegree {
	out := make([]SourceDegree, 0, len(e.order))
	for _, src := range e.order {
		out = append(out, e.estimateOf(src, e.sources[src]))
	}
	return out
}

// Mean returns the mean combined estimate and the mean single-exchange
// probe estimate across all observed sources. With no sources both are
// 0 — never NaN (the zero-observation division guard).
func (e *DegreeEstimator) Mean() (estimate, ratio float64) {
	if len(e.order) == 0 {
		return 0, 0
	}
	var sumEst, sumRatio float64
	for _, src := range e.order {
		sd := e.estimateOf(src, e.sources[src])
		sumEst += sd.Estimate
		sumRatio += sd.Ratio
	}
	n := float64(len(e.order))
	return sumEst / n, sumRatio / n
}

// Collector feeds both estimators from a stream of GETADDR exchanges —
// the shape the crawler's Observer seam delivers. It owns the est.*
// metrics and applies the reachable-reference filter for the population
// estimator; the degree estimator sees the full response (a peer's
// tables hold reachable addresses too).
type Collector struct {
	cfg Config
	// Pop is the unreachable-population estimator.
	Pop *PopulationEstimator
	// Deg is the per-peer degree estimator.
	Deg *DegreeEstimator

	scratch []netip.AddrPort

	mExchanges *obs.Counter
	mAnnounce  *obs.Counter
	mUnreach   *obs.Counter
	mSources   *obs.Counter
}

// NewCollector creates a collector over cfg.
func NewCollector(cfg Config) *Collector {
	return &Collector{
		cfg: cfg,
		Pop: NewPopulationEstimator(),
		Deg: NewDegreeEstimator(DefaultGetAddrMaxPct, DefaultGetAddrMax),

		mExchanges: cfg.Metrics.Counter("est.exchanges"),
		mAnnounce:  cfg.Metrics.Counter("est.announcements"),
		mUnreach:   cfg.Metrics.Counter("est.announcements.unreachable"),
		mSources:   cfg.Metrics.Counter("est.sources"),
	}
}

// Exchange ingests one GETADDR→ADDR exchange: source answered with
// addrs. Malformed entries (invalid addresses) are skipped; the method
// never panics on arbitrary input.
func (c *Collector) Exchange(source netip.AddrPort, addrs []wire.NetAddress) {
	c.mExchanges.Inc()
	c.scratch = c.scratch[:0]
	for _, na := range addrs {
		c.mAnnounce.Inc()
		c.scratch = append(c.scratch, na.Addr)
		if c.cfg.IsReachable != nil && c.cfg.IsReachable(na.Addr) {
			continue
		}
		if c.Pop.Observe(source, na.Addr) {
			c.mUnreach.Inc()
		}
	}
	if c.Deg.ObserveExchange(source, c.scratch) {
		c.mSources.Inc()
	}
}

// PopulationEstimate returns the current unreachable-population
// estimate (finite, non-negative; 0 before any observation).
func (c *Collector) PopulationEstimate() float64 { return c.Pop.Estimate() }

// MeanDegree returns the mean combined and mean probe degree estimates
// across observed peers (0, 0 before any observation).
func (c *Collector) MeanDegree() (estimate, ratio float64) { return c.Deg.Mean() }

// RelativeError returns |estimate − truth| / truth, or 0 when truth is
// 0 — the NaN-free convention every estimator-error table in the
// fig_est family uses.
func RelativeError(estimate, truth float64) float64 {
	if truth == 0 || math.IsNaN(truth) {
		return 0
	}
	return math.Abs(estimate-truth) / math.Abs(truth)
}
