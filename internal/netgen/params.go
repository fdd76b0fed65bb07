// Package netgen generates the synthetic network populations and churn
// traces that stand in for the live Bitcoin network the paper measured.
// Every calibration constant is taken from the paper's reported
// measurements (cited inline); the generator plants the *inputs*
// (population sizes, AS placement, lifetime mixtures, gossip composition)
// and the analyses recompute the paper's *outputs* from the generated
// data, so the reproduction exercises the same estimation pipeline as the
// original study.
package netgen

import "time"

// Params holds the knobs that vary between runs: the seed and scale
// every caller picks, and the six churn and epoch values Params2019
// changes. DefaultParams returns the 2020 calibration; Params2019
// returns the 2019 regime used for the Figure 1 contrast. Every other
// calibration value is a package constant below.
type Params struct {
	// Seed drives all generation randomness.
	Seed int64
	// Scale multiplies every population size; tests use small scales,
	// figure reproduction uses 1.0.
	Scale float64
	// Epoch is the trace start time.
	Epoch time.Time

	// FreshPerDay is the arrival rate of ephemeral nodes: addresses that
	// appear once, stay for EphemeralLifetime on average, and never
	// return. Together with the recurring transients this reproduces the
	// paper's 28,781 uniques, ≈708 daily departures, and ≈16.6-day mean
	// lifetime.
	FreshPerDay float64
	// EphemeralLifetime is the mean single-session lifetime of fresh
	// arrivals.
	EphemeralLifetime time.Duration
	// MeanSessionOn and MeanSessionOff parameterize the exponential
	// on/off sessions of recurring transient nodes. The on/off ratio
	// sets their duty cycle; the generator sizes the pool so the steady
	// online population matches SteadyReachable.
	MeanSessionOn  time.Duration
	MeanSessionOff time.Duration
	// FlapperFraction is the share of transient nodes with fast on/off
	// cycles (MeanSessionOn/6); these drive the 10-minute-granularity
	// synchronized-departure counts (3.9/10 min in 2019 vs 7.6/10 min in
	// 2020) without inflating the daily churn much.
	FlapperFraction float64
}

// The calibration shared by both regimes. Population sizes are
// unscaled: the generator multiplies them by Params.Scale.
const (
	// Horizon is the measurement duration (paper: 60 days, 04 Apr –
	// 04 Jun 2020).
	Horizon = 60 * 24 * time.Hour
	// CrawlInterval is the cadence of crawl experiments (paper: roughly
	// daily over 60 days).
	CrawlInterval = 24 * time.Hour
	// ConnectSuccessRate is the probability that dialing a listed
	// reachable node succeeds (listings go stale and inbound slots fill;
	// paper: connected to 8,270 of ~9,700 dialable listings ≈ 0.855).
	ConnectSuccessRate = 0.855

	// --- Reachable population (§III-A, Figure 3) ---

	// SteadyReachable is the average number of reachable nodes online at
	// any time (paper: 10,114 from Bitnodes).
	SteadyReachable = 10114
	// persistentReachable is the number of nodes that never leave
	// (paper Figure 12: 3,034 end-to-end lines).
	persistentReachable = 3034
	// reachableDefaultPortPct is the share of reachable nodes on port
	// 8333 (paper: 95.78%).
	reachableDefaultPortPct = 0.9578
	// ibdFirstJoin is how long a brand-new node needs to download the
	// blockchain before contributing to synchronization (paper: "a few
	// days"; we use 2 days).
	ibdFirstJoin = 48 * time.Hour
	// ibdRejoin is the catch-up time for a returning node (paper §IV-D:
	// 11 minutes 14 seconds measured).
	ibdRejoin = 11*time.Minute + 14*time.Second

	// --- Unreachable population (§IV-A, Figures 4–5) ---

	// initialUnreachable is the number of unreachable addresses visible
	// in gossip at the trace start (paper: ≈195K per experiment).
	initialUnreachable = 195000
	// unreachablePerDay is the arrival rate of new unique unreachable
	// addresses (paper: (694,696 − 195K)/60 ≈ 8.3K/day).
	unreachablePerDay = 8300.0
	// unreachableTTL is how long an unreachable address stays visible in
	// gossip (tuned so the per-experiment count holds at ≈195K).
	unreachableTTL = 21 * 24 * time.Hour
	// responsiveFraction is the share of unreachable addresses that are
	// actually running Bitcoin behind NAT (paper: 163,496/694,696 =
	// 23.54%).
	responsiveFraction = 0.2354
	// responsiveTTLBoost multiplies the TTL of responsive addresses:
	// real nodes outlive stale gossip entries, which is why the paper
	// sees 27.7% responsive per experiment against 23.5% cumulative.
	responsiveTTLBoost = 1.7
	// unreachableDefaultPortPct is the share of unreachable addresses on
	// port 8333 (paper: 88.54%; the rest spread over 9,414 ports).
	unreachableDefaultPortPct = 0.8854

	// --- Addressing protocol (§IV-B, Figures 7–8) ---

	// addrReachableShare is the fraction of reachable addresses in an
	// average ADDR message (paper: 14.9%).
	addrReachableShare = 0.149
	// maliciousCount is the number of reachable nodes flooding
	// unreachable-only ADDR responses (paper: 73).
	maliciousCount = 73
	// maliciousInAS3320 is how many of them share AS3320 (paper: 43).
	maliciousInAS3320 = 43
	// maliciousHeavyCount is how many flooders sent >100K addresses
	// (paper: 8, with the maximum >400K).
	maliciousHeavyCount = 8
	// bookSize is the number of addresses a reachable node's tables
	// reveal to the iterative GETADDR crawl (Algorithm 1).
	bookSize = 2500

	// --- AS placement (§IV-A1, Table I) ---

	// reachableASes, unreachableASes, and responsiveASes are the numbers
	// of distinct ASes hosting each class (paper: 2,000 / 8,494 / 4,453).
	reachableASes   = 2000
	unreachableASes = 8494
	responsiveASes  = 4453
	// The tail alphas shape each class's AS long tail; tuned so the ASes
	// needed to cover 50% of nodes are ≈25 / 36 / 24.
	reachableTailAlpha   = 0.65
	unreachableTailAlpha = 0.82
	responsiveTailAlpha  = 0.68

	// --- Seed databases (§III-A, Figure 3) ---

	// bitnodesCoverage is the fraction of online reachable nodes the
	// Bitnodes view lists.
	bitnodesCoverage = 0.96
	// dnsListSize targets the DNS seeder database size (paper: 6,637
	// with 6,078 common with Bitnodes).
	dnsListSize = 6637
	// dnsOverlapFraction is the share of the DNS list also on Bitnodes
	// (6,078 / 6,637).
	dnsOverlapFraction = 0.916
	// criticalInfraPct is the share of addresses blacklisted as critical
	// infrastructure (paper: 439/10,114 ≈ 4.3%).
	criticalInfraPct = 0.0434
)

// Paper-reported AS shares for Table I (percent of nodes per ASN). These
// seed the generator's AS distributions; the analysis recovers them from
// the placed populations.
var (
	// ReachableASShares is Table I column "% Rb".
	ReachableASShares = map[uint32]float64{
		3320: 8.08, 24940: 5.05, 8881: 4.60, 16509: 3.62, 6805: 2.97,
		14061: 2.84, 7922: 2.55, 16276: 2.43, 3209: 2.06, 12322: 1.37,
		7545: 1.33, 15169: 1.03, 3303: 0.99, 6830: 0.95, 12389: 0.94,
		701: 0.88, 20676: 0.83, 51167: 0.82, 3352: 0.80, 4134: 0.76,
	}
	// UnreachableASShares is Table I column "% Urb".
	UnreachableASShares = map[uint32]float64{
		3320: 6.36, 4134: 5.34, 7922: 4.24, 6939: 3.69, 8881: 2.59,
		4837: 2.28, 12389: 2.04, 6830: 1.89, 3209: 1.65, 16509: 1.54,
		7018: 1.32, 6805: 1.31, 9009: 1.19, 2856: 1.14, 3215: 0.80,
		4808: 0.80, 14061: 0.78, 22773: 0.74, 1221: 0.74, 24940: 0.72,
	}
	// ResponsiveASShares is Table I column "% Resp".
	ResponsiveASShares = map[uint32]float64{
		4134: 6.18, 3320: 5.90, 12389: 4.03, 4837: 3.77, 9009: 3.28,
		8881: 3.07, 6805: 2.87, 3209: 2.51, 7922: 1.56, 14061: 1.44,
		6830: 1.43, 3352: 1.25, 24940: 1.18, 3269: 1.15, 4808: 1.13,
		60068: 1.12, 209: 1.11, 7545: 1.10, 701: 1.07, 16276: 0.99,
	}
)

// DefaultParams returns the 2020 calibration at the given scale.
func DefaultParams(seed int64, scale float64) Params {
	return Params{
		Seed:              seed,
		Scale:             scale,
		Epoch:             time.Date(2020, time.April, 4, 0, 0, 0, 0, time.UTC),
		FreshPerDay:       177,
		EphemeralLifetime: 4 * 24 * time.Hour,
		MeanSessionOn:     12 * 24 * time.Hour,
		MeanSessionOff:    24 * 24 * time.Hour,
		FlapperFraction:   0.08,
	}
}

// Params2019 returns the 2019 regime: identical protocol but roughly half
// the churn among synchronized nodes (paper §IV-D: 3.9 vs 7.6
// synchronized departures per 10 minutes), realized as longer sessions
// and fewer flappers.
func Params2019(seed int64, scale float64) Params {
	p := DefaultParams(seed, scale)
	p.Epoch = time.Date(2019, time.September, 1, 0, 0, 0, 0, time.UTC)
	p.MeanSessionOn = 24 * 24 * time.Hour
	p.MeanSessionOff = 48 * 24 * time.Hour
	p.FlapperFraction = 0.06
	p.FreshPerDay = 90
	p.EphemeralLifetime = 6 * 24 * time.Hour
	return p
}

// scaled applies the Scale factor to a population size, with a floor of
// one when the unscaled value is positive.
func (p Params) scaled(n int) int {
	v := int(float64(n) * p.Scale)
	if v < 1 && n > 0 {
		v = 1
	}
	return v
}

// scaledF applies the Scale factor to a rate.
func (p Params) scaledF(v float64) float64 { return v * p.Scale }
