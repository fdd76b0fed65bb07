package analysis

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"time"

	"repro/internal/addridx"
	"repro/internal/asmap"
	"repro/internal/crawler"
	"repro/internal/netgen"
	"repro/internal/obs"
)

// CrawlSeriesConfig parameterizes the longitudinal crawl study (§III,
// Figures 3–5 and 8, Table I).
type CrawlSeriesConfig struct {
	// Params is the universe calibration (scale it down for tests).
	Params netgen.Params
	// Experiments caps the number of crawl experiments (0 = one per
	// netgen.CrawlInterval over the whole horizon, the paper's 60).
	Experiments int
	// ScannerStartExperiment delays the responsive scan, reproducing the
	// two-week gap the paper reports for Figure 5 (expressed in
	// experiments; 14 at daily cadence).
	ScannerStartExperiment int
	// ScanSampleFraction probes only this share of collected unreachable
	// addresses per experiment and scales up the count (1.0 probes all;
	// lower values keep large runs fast with negligible estimator
	// variance at these population sizes).
	ScanSampleFraction float64
	// Workers is the per-experiment crawl/scan fan-out width (0 =
	// GOMAXPROCS). The result is byte-identical at any width: per-target
	// randomness is keyed by StationID and results merge in target
	// order.
	Workers int
	// Metrics, when set, receives the crawl.* counters cumulatively
	// across all experiments — the live /metrics view for btccrawl
	// -series. Nil keeps the study allocation-free of observability.
	Metrics *obs.Registry
	// OnExperiment, when set, is called with each experiment's stats as
	// soon as that crawl (and its scan) completes, in experiment order
	// and never concurrently — the incremental-output hook btccrawl uses
	// to land one CSV row per experiment, so a cancelled series still
	// leaves every finished experiment on disk.
	OnExperiment func(ExperimentStats)
}

// ExperimentStats is one crawl experiment's outcome (one x-axis point of
// Figures 3–5).
type ExperimentStats struct {
	// Index is the experiment number; Time its virtual date.
	Index int
	Time  time.Time
	// Figure 3(a–b): seed database sizes and blacklist exclusions.
	Bitnodes, DNS, Common                         int
	BitnodesExcluded, DNSExcluded, CommonExcluded int
	// Figure 3(c–d): dial outcomes.
	Dialed, Connected, ConnectedDNSOnly int
	// Figure 4: unreachable address collection.
	UniqueUnreachable, CumulativeUnreachable int
	// Figure 5: responsive scan (zero before the scanner starts).
	Responsive, CumulativeResponsive int
	// ADDR composition for this experiment.
	ReachableShare, UnreachableShare float64
}

// MaliciousRecord aggregates one flagged flooder across the whole series
// (Figure 8).
type MaliciousRecord struct {
	// Addr is the flooder.
	Addr netip.AddrPort
	// ASN hosts it.
	ASN uint32
	// UnreachableSent is the total unreachable addresses it advertised.
	UnreachableSent int
	// Experiments is how many crawls flagged it.
	Experiments int
}

// ASClassCensus is Table I's view for one node class.
type ASClassCensus struct {
	// Class label ("reachable", "unreachable", "responsive").
	Class string
	// Total is the number of nodes counted.
	Total int
	// NumASes is the number of distinct ASes observed.
	NumASes int
	// Top holds the largest ASes.
	Top []asmap.ASShare
	// CoverageFor50Pct is how many ASes host half the nodes.
	CoverageFor50Pct int
	// AS4134Pct is China Telecom's share of the class, in percent: small
	// among reachable nodes, near the top once unreachable and responsive
	// nodes are counted (§IV-A1).
	AS4134Pct float64
}

// CrawlSeriesResult aggregates the longitudinal study.
type CrawlSeriesResult struct {
	// Experiments holds the per-crawl series.
	Experiments []ExperimentStats
	// TotalUniqueUnreachable is the cumulative Figure 4 endpoint
	// (paper: 694,696).
	TotalUniqueUnreachable int
	// TotalResponsive is the cumulative Figure 5 endpoint
	// (paper: 163,496).
	TotalResponsive int
	// UniqueConnected counts distinct reachable nodes contacted
	// (paper: 28,781).
	UniqueConnected int
	// MeanConnected is the per-experiment average (paper: 8,270).
	MeanConnected float64
	// MeanAddrReachableShare is the ADDR composition (paper: 14.9%).
	MeanAddrReachableShare float64
	// DefaultPortShareUnreachable is the port-8333 share among collected
	// unreachable addresses (paper: 88.54%).
	DefaultPortShareUnreachable float64
	// Malicious lists flagged flooders sorted by flood volume
	// (Figure 8; paper: 73 nodes, 8 above 100K, max above 400K).
	Malicious []MaliciousRecord
	// Censuses holds Table I (reachable / unreachable / responsive).
	Censuses []ASClassCensus
}

// RunCrawlSeries generates the universe and performs the full
// longitudinal crawl + scan study.
func RunCrawlSeries(ctx context.Context, cfg CrawlSeriesConfig) (*CrawlSeriesResult, error) {
	u, err := netgen.Generate(cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("analysis: generate universe: %w", err)
	}
	return RunCrawlSeriesOn(ctx, u, cfg)
}

// RunCrawlSeriesOn runs the study over an existing universe. The
// per-experiment loop checks ctx between crawls and stops with ctx.Err()
// when cancelled.
//
// Every station address is interned in u.Index, so the cross-experiment
// cumulative sets (Figure 4/5 unions, the unique-connected set, the
// census dedup sets) are dense addridx bitsets rather than address-keyed
// maps; the only map that survives the loop is the malicious-flooder
// aggregation, whose population is tiny.
func RunCrawlSeriesOn(ctx context.Context, u *netgen.Universe, cfg CrawlSeriesConfig) (*CrawlSeriesResult, error) {
	p := u.Params
	total := int(netgen.Horizon / netgen.CrawlInterval)
	if cfg.Experiments > 0 && cfg.Experiments < total {
		total = cfg.Experiments
	}
	if cfg.ScanSampleFraction <= 0 || cfg.ScanSampleFraction > 1 {
		cfg.ScanSampleFraction = 1
	}
	// The scan probes addresses in one of stride sample buckets; every
	// responsive count, per experiment and in total, scales by stride.
	stride := max(int(1/cfg.ScanSampleFraction), 1)

	n := u.Index.Len()
	res := &CrawlSeriesResult{}
	cumulativeUnreachable := addridx.NewSet(n)
	cumulativeResponsive := addridx.NewSet(n)
	uniqueConnected := addridx.NewSet(n)
	malicious := make(map[netip.AddrPort]*MaliciousRecord)
	var reachShareSum float64
	var connectedSum int
	defaultPort, totalPorts := 0, 0

	reachableCensus := asmap.NewCensus()
	responsiveCensus := asmap.NewCensus()
	unreachableCensus := asmap.NewCensus()
	countedReachable := addridx.NewSet(n)
	countedResponsive := addridx.NewSet(n)
	onBitnodes := addridx.NewSet(n)
	// The scan's targets and their IDs, reused by every experiment.
	var probeTargets []netip.AddrPort
	var probeIDs []addridx.ID

	for i := 0; i < total; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		at := p.Epoch.Add(time.Duration(i) * netgen.CrawlInterval)
		view := crawler.NewUniverseView(u, at)
		seedView := u.SeedViewAt(at)
		targets := crawler.TargetsOf(seedView)
		known := crawler.ReachableReference(seedView)

		c := crawler.New(crawler.Config{
			Metrics: cfg.Metrics,
			Workers: cfg.Workers,
			Index:   u.Index,
		}, view)
		snap, err := c.Crawl(ctx, at, targets, known)
		if err != nil {
			return nil, fmt.Errorf("analysis: crawl %d: %w", i, err)
		}

		st := ExperimentStats{
			Index:            i,
			Time:             at,
			Bitnodes:         len(seedView.Bitnodes),
			DNS:              len(seedView.DNS),
			Common:           seedView.Common,
			BitnodesExcluded: seedView.BitnodesExcluded,
			DNSExcluded:      seedView.DNSExcluded,
			CommonExcluded:   seedView.CommonExcluded,
			Dialed:           snap.Dialed,
			Connected:        len(snap.Connected),
		}
		connectedSum += len(snap.Connected)

		// Figure 3(d): connected nodes absent from the Bitnodes list.
		onBitnodes.Clear()
		for _, s := range seedView.Bitnodes {
			onBitnodes.Add(s.ID)
		}
		for k, a := range snap.Connected {
			id := snap.ConnectedIDs[k]
			uniqueConnected.Add(id)
			if !onBitnodes.Contains(id) {
				st.ConnectedDNSOnly++
			}
			if countedReachable.Add(id) {
				if asn, ok := u.Alloc.ASNOf(a.Addr()); ok {
					reachableCensus.Add(asn)
				}
			}
		}

		// Figure 4 bookkeeping.
		st.UniqueUnreachable = len(snap.Unreachable)
		for k, a := range snap.Unreachable {
			if !cumulativeUnreachable.Add(snap.UnreachableIDs[k]) {
				continue
			}
			if asn, ok := u.Alloc.ASNOf(a.Addr()); ok {
				unreachableCensus.Add(asn)
			}
			if a.Port() == 8333 {
				defaultPort++
			}
			totalPorts++
		}
		st.CumulativeUnreachable = cumulativeUnreachable.Count()

		// ADDR composition.
		r, unr := snap.AddrComposition()
		st.ReachableShare, st.UnreachableShare = r, unr
		reachShareSum += r

		// Malicious flooders.
		for _, rep := range snap.SuspectedMalicious(10) {
			rec := malicious[rep.Addr]
			if rec == nil {
				asn, _ := u.Alloc.ASNOf(rep.Addr.Addr())
				rec = &MaliciousRecord{Addr: rep.Addr, ASN: asn}
				malicious[rep.Addr] = rec
			}
			rec.UnreachableSent += rep.UnreachableSent
			rec.Experiments++
		}

		// Figure 5: responsive scan, delayed by the configured start.
		if i >= cfg.ScannerStartExperiment {
			probeTargets = slices.Grow(probeTargets[:0], len(snap.Unreachable))
			probeIDs = slices.Grow(probeIDs[:0], len(snap.Unreachable))
			// Membership in the probe sample is a deterministic function
			// of the address, so the same subset is probed in every
			// experiment and the scaled cumulative count is an unbiased
			// estimator of the full union.
			for k, a := range snap.Unreachable {
				if addrSampleBucket(a, stride) == 0 {
					probeTargets = append(probeTargets, a)
					probeIDs = append(probeIDs, snap.UnreachableIDs[k])
				}
			}
			scan, err := crawler.ScanWith(ctx, crawler.ScanConfig{
				Workers: cfg.Workers,
				Metrics: cfg.Metrics,
				IDs:     probeIDs,
			}, at, view, probeTargets)
			if err != nil {
				return nil, fmt.Errorf("analysis: scan %d: %w", i, err)
			}
			st.Responsive = len(scan.Responsive) * stride
			for k, id := range scan.ResponsiveIDs {
				if cumulativeResponsive.Add(id) && countedResponsive.Add(id) {
					if asn, ok := u.Alloc.ASNOf(scan.Responsive[k].Addr()); ok {
						responsiveCensus.Add(asn)
					}
				}
			}
			st.CumulativeResponsive = cumulativeResponsive.Count() * stride
		}

		res.Experiments = append(res.Experiments, st)
		if cfg.OnExperiment != nil {
			cfg.OnExperiment(st)
		}
	}

	res.TotalUniqueUnreachable = cumulativeUnreachable.Count()
	res.TotalResponsive = cumulativeResponsive.Count() * stride
	res.UniqueConnected = uniqueConnected.Count()
	res.MeanConnected = float64(connectedSum) / float64(total)
	res.MeanAddrReachableShare = reachShareSum / float64(total)
	if totalPorts > 0 {
		res.DefaultPortShareUnreachable = float64(defaultPort) / float64(totalPorts)
	}

	for _, rec := range malicious {
		res.Malicious = append(res.Malicious, *rec)
	}
	// Map iteration feeds this sort, so the ordering needs a total
	// tie-break to stay deterministic when flood volumes collide.
	sort.Slice(res.Malicious, func(i, j int) bool {
		a, b := res.Malicious[i], res.Malicious[j]
		if a.UnreachableSent != b.UnreachableSent {
			return a.UnreachableSent > b.UnreachableSent
		}
		return addridx.Compare(a.Addr, b.Addr) < 0
	})

	res.Censuses = []ASClassCensus{
		censusOf("reachable", reachableCensus),
		censusOf("unreachable", unreachableCensus),
		censusOf("responsive", responsiveCensus),
	}
	return res, nil
}

// addrSampleBucket deterministically buckets an address into [0, stride).
func addrSampleBucket(a netip.AddrPort, stride int) int {
	if stride <= 1 {
		return 0
	}
	b := a.Addr().As4()
	h := (uint32(b[0])*2654435761 + uint32(b[1])*40503 +
		uint32(b[2])*97 + uint32(b[3])) ^ uint32(a.Port())
	return int(h % uint32(stride))
}

// censusOf folds an asmap census into the Table I row format.
func censusOf(class string, c *asmap.Census) ASClassCensus {
	return ASClassCensus{
		Class:            class,
		Total:            c.Total(),
		NumASes:          c.NumASes(),
		Top:              c.TopN(20),
		CoverageFor50Pct: c.CoverageCount(0.5),
		AS4134Pct:        c.Share(4134),
	}
}
