package analysis

import (
	"context"
	"testing"
	"time"

	"repro/internal/netgen"
	"repro/internal/node"
	"repro/internal/stats"
)

// Small, fast configurations keep the suite under a few seconds per test;
// the full-scale runs live in the repository-level benchmarks.

func smallPropConfig(seed int64) PropagationConfig {
	return PropagationConfig{
		Seed:         seed,
		NumReachable: 40,
		Duration:     time.Hour,
		Warmup:       10 * time.Minute,
		TxPerBlock:   10,
	}
}

func TestRunPropagationBasics(t *testing.T) {
	res, err := RunPropagation(context.Background(), smallPropConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksMined == 0 {
		t.Fatal("no blocks mined")
	}
	if len(res.SyncSamples) == 0 || len(res.ObservedSyncSamples) == 0 {
		t.Fatal("no synchronization samples")
	}
	for _, s := range res.SyncSamples {
		if s < 0 || s > 1 {
			t.Fatalf("sync sample %v out of range", s)
		}
	}
	if res.MeanOutdegree <= 0 || res.MeanOutdegree > 10 {
		t.Errorf("mean outdegree = %v, want (0, 10]", res.MeanOutdegree)
	}
	if res.DialAttempts+res.FeelerAttempts == 0 {
		t.Error("no dial activity recorded")
	}
	if res.DialSuccesses > res.DialAttempts {
		t.Error("more successes than attempts")
	}
	if res.FeelerSuccesses > res.FeelerAttempts {
		t.Error("more feeler successes than attempts")
	}
	if len(res.BlockRelays) == 0 {
		t.Error("no block relay observations")
	}
	if len(res.TxRelays) == 0 {
		t.Error("no tx relay observations")
	}
}

func TestRunPropagationRejectsTinyNetwork(t *testing.T) {
	if _, err := RunPropagation(context.Background(), PropagationConfig{NumReachable: 2}); err == nil {
		t.Error("want error for tiny network")
	}
}

func TestObservedSyncBelowTrueSync(t *testing.T) {
	// The Bitnodes-style observed metric must lag the true one: polling
	// delay guarantees observed <= true on average.
	cfg := smallPropConfig(2)
	cfg.ChurnDeparturesPer10Min = 0.5
	res, err := RunPropagation(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	trueMean := stats.Mean(res.SyncSamples)
	obsMean := stats.Mean(res.ObservedSyncSamples)
	if obsMean >= trueMean {
		t.Errorf("observed sync %.3f should lag true sync %.3f", obsMean, trueMean)
	}
	if obsMean < 0.3 {
		t.Errorf("observed sync %.3f implausibly low", obsMean)
	}
}

func TestChurnReducesObservedSync(t *testing.T) {
	lo := smallPropConfig(3)
	lo.ChurnDeparturesPer10Min = 0.2
	hi := smallPropConfig(3)
	hi.ChurnDeparturesPer10Min = 2.0
	resLo, err := RunPropagation(context.Background(), lo)
	if err != nil {
		t.Fatal(err)
	}
	resHi, err := RunPropagation(context.Background(), hi)
	if err != nil {
		t.Fatal(err)
	}
	mLo := stats.Mean(resLo.ObservedSyncSamples)
	mHi := stats.Mean(resHi.ObservedSyncSamples)
	if mHi >= mLo {
		t.Errorf("high churn sync %.3f should be below low churn sync %.3f", mHi, mLo)
	}
}

func TestRunFig1Contrast(t *testing.T) {
	res, err := RunFig1(context.Background(), Fig1Config{
		Seed:         4,
		NumReachable: 40,
		Duration:     4 * time.Hour,
		Churn2019:    0.3,
		Churn2020:    2.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Y2020.Mean >= res.Y2019.Mean {
		t.Errorf("2020 mean %.3f should be below 2019 mean %.3f",
			res.Y2020.Mean, res.Y2019.Mean)
	}
	// KDE output must be a density over [0, 1].
	for _, regime := range []RegimeSync{res.Y2019, res.Y2020} {
		if len(regime.Grid) != len(regime.Density) {
			t.Fatal("grid/density length mismatch")
		}
		var integral float64 // trapezoid rule
		for i := 1; i < len(regime.Grid); i++ {
			integral += 0.5 * (regime.Density[i] + regime.Density[i-1]) * (regime.Grid[i] - regime.Grid[i-1])
		}
		if integral < 0.5 || integral > 1.3 {
			t.Errorf("KDE integral over [0,1] = %.3f", integral)
		}
	}
}

func TestRunCrawlSeriesSmall(t *testing.T) {
	p := netgen.DefaultParams(5, 0.02)
	res, err := RunCrawlSeries(context.Background(), CrawlSeriesConfig{
		Params:                 p,
		Experiments:            10,
		ScannerStartExperiment: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Experiments) != 10 {
		t.Fatalf("experiments = %d, want 10", len(res.Experiments))
	}
	// Cumulative series must be non-decreasing and end at the totals.
	prev := 0
	for _, e := range res.Experiments {
		if e.CumulativeUnreachable < prev {
			t.Fatal("cumulative unreachable decreased")
		}
		prev = e.CumulativeUnreachable
		if e.Connected > e.Dialed {
			t.Fatal("connected exceeds dialed")
		}
	}
	if res.TotalUniqueUnreachable != prev {
		t.Errorf("total unreachable %d != final cumulative %d",
			res.TotalUniqueUnreachable, prev)
	}
	// Scanner must be inactive before its start experiment.
	for _, e := range res.Experiments[:3] {
		if e.Responsive != 0 {
			t.Error("responsive counts before scanner start")
		}
	}
	if res.TotalResponsive == 0 {
		t.Error("no responsive nodes found after scanner start")
	}
	// ADDR composition near the planted 14.9%.
	if res.MeanAddrReachableShare < 0.08 || res.MeanAddrReachableShare > 0.25 {
		t.Errorf("addr reachable share = %.3f, want ≈0.149", res.MeanAddrReachableShare)
	}
	// Port share near the planted 88.5%.
	if res.DefaultPortShareUnreachable < 0.83 || res.DefaultPortShareUnreachable > 0.94 {
		t.Errorf("default-port share = %.3f, want ≈0.885", res.DefaultPortShareUnreachable)
	}
	// Censuses populated for all three classes.
	if len(res.Censuses) != 3 {
		t.Fatalf("censuses = %d, want 3", len(res.Censuses))
	}
	for _, c := range res.Censuses {
		if c.Total == 0 {
			t.Errorf("census %q empty", c.Class)
		}
		if c.CoverageFor50Pct <= 0 {
			t.Errorf("census %q coverage = %d", c.Class, c.CoverageFor50Pct)
		}
	}
}

func TestCrawlSeriesFindsMalicious(t *testing.T) {
	p := netgen.DefaultParams(6, 0.2)
	res, err := RunCrawlSeries(context.Background(), CrawlSeriesConfig{
		Params:      p,
		Experiments: 3,
		// Skip the scan: this test only needs the flooder detection.
		ScannerStartExperiment: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Malicious) == 0 {
		t.Fatal("no malicious nodes detected")
	}
	// Sorted by flood volume.
	for i := 1; i < len(res.Malicious); i++ {
		if res.Malicious[i].UnreachableSent > res.Malicious[i-1].UnreachableSent {
			t.Fatal("malicious records not sorted by volume")
		}
	}
	// A plurality should sit in AS3320 (43/73 in the paper).
	in3320 := 0
	for _, m := range res.Malicious {
		if m.ASN == 3320 {
			in3320++
		}
	}
	if in3320 == 0 {
		t.Error("no flooders found in AS3320")
	}
}

func TestRunConnExperiment(t *testing.T) {
	res, err := RunConnExperiment(context.Background(), ConnExperimentConfig{
		Seed:              7,
		LivePeers:         30,
		Duration:          260 * time.Second,
		PeerChurnPer10Min: 2,
		Runs:              2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(res.Runs))
	}
	for i, r := range res.Runs {
		if len(r.Samples) == 0 {
			t.Fatalf("run %d: no samples", i)
		}
		if r.Attempts == 0 {
			t.Fatalf("run %d: no attempts", i)
		}
		for _, s := range r.Samples {
			if s < 0 || s > node.DefaultMaxOutbound+node.DefaultMaxFeelers {
				t.Fatalf("run %d: sample %d out of range", i, s)
			}
		}
	}
	// The gossip mix must keep the success rate far below 1 (paper:
	// 11.2%).
	if res.SuccessRate > 0.5 {
		t.Errorf("success rate = %.3f; dead addresses should dominate", res.SuccessRate)
	}
	if res.SuccessRate <= 0 {
		t.Error("success rate = 0; nothing succeeded")
	}
	if res.MeanConns <= 0 {
		t.Error("mean connections = 0")
	}
}

func TestRunResync(t *testing.T) {
	res, err := RunResync(context.Background(), ConnExperimentConfig{
		Seed:      8,
		LivePeers: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ToFirstConnection <= 0 {
		t.Error("first connection time not recorded")
	}
	if res.ToSynced < res.ToFirstConnection {
		t.Error("synced before first connection")
	}
	if res.ToSynced > 30*time.Minute {
		t.Errorf("resync took %v, paper measured ~11 min", res.ToSynced)
	}
}

func TestRunChurnFigs(t *testing.T) {
	res, err := RunChurnFigs(context.Background(), ChurnFigsConfig{
		Params: netgen.DefaultParams(9, 0.02),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueAddresses == 0 {
		t.Fatal("empty matrix")
	}
	if res.PersistentCount <= 0 {
		t.Error("no persistent nodes")
	}
	if res.MeanLifetime <= 0 {
		t.Error("zero mean lifetime")
	}
	if len(res.DailyDepartures) != 59 {
		t.Errorf("daily series = %d pairs, want 59", len(res.DailyDepartures))
	}
	if res.MeanDailyDepartures <= 0 || res.MeanDailyArrivals <= 0 {
		t.Error("no churn measured")
	}
	// Departure share should be in the vicinity of the paper's 8.6%.
	if res.DepartureSharePct < 2 || res.DepartureSharePct > 20 {
		t.Errorf("departure share = %.1f%%, want ≈8.6%%", res.DepartureSharePct)
	}
}

func TestRunSyncDepartures(t *testing.T) {
	res, err := RunSyncDepartures(context.Background(), 10, 0.05, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate2019 <= 0 || res.Rate2020 <= 0 {
		t.Fatal("zero departure rates")
	}
	if res.Ratio < 1.2 {
		t.Errorf("2020/2019 ratio = %.2f, want ≈2", res.Ratio)
	}
}

func TestRunAblation(t *testing.T) {
	base := smallPropConfig(11)
	base.Duration = 45 * time.Minute
	base.ChurnDeparturesPer10Min = 0.5
	variants := []AblationVariant{
		{Name: "stock"},
		{Name: "priority", Policies: node.MustPolicySet("priority-relay")},
		{Name: "broadcast", Policies: node.MustPolicySet("ideal-broadcast")},
	}
	res, err := RunAblation(context.Background(), base, variants)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range res.Rows {
		byName[r.Variant.Name] = r
		if r.MeanObservedSync <= 0 {
			t.Errorf("%s: no observed sync", r.Variant.Name)
		}
	}
	// Broadcast (the idealized model) must not be slower than stock
	// round-robin at relaying blocks.
	if byName["broadcast"].MeanBlockRelay > byName["stock"].MeanBlockRelay {
		t.Errorf("broadcast relay %v slower than stock %v",
			byName["broadcast"].MeanBlockRelay, byName["stock"].MeanBlockRelay)
	}
}

func TestSummarizeRelays(t *testing.T) {
	if got := SummarizeRelays(nil); got.Count != 0 {
		t.Error("empty summary should have zero count")
	}
	obs := []RelayObservation{
		{LastDelay: time.Second},
		{LastDelay: 2 * time.Second},
		{LastDelay: 3 * time.Second},
	}
	s := SummarizeRelays(obs)
	if s.Count != 3 {
		t.Errorf("count = %d", s.Count)
	}
	if s.Mean < 1.99 || s.Mean > 2.01 {
		t.Errorf("mean = %v, want 2", s.Mean)
	}
	if s.Max != 3 {
		t.Errorf("max = %v, want 3", s.Max)
	}
}

// TestStockVariantsCoverRefinements pins the ablation ladder: row labels
// and the policy set each runs (node's TestResolvePoliciesHooks pins what
// each set compiles to).
func TestStockVariantsCoverRefinements(t *testing.T) {
	want := [][2]string{
		{"stock", "stock"},
		{"tried-only-addr", "tried-only-addr"},
		{"17d-horizon", "horizon-17d"},
		{"priority-relay", "priority-relay"},
		{"all-refinements", "tried-only-addr+horizon-17d+priority-relay"},
		{"ideal-broadcast", "ideal-broadcast"},
	}
	vs := StockVariants()
	if len(vs) != len(want) {
		t.Fatalf("variants = %d, want %d", len(vs), len(want))
	}
	for i, v := range vs {
		if got := [2]string{v.Name, v.Policies.String()}; got != want[i] {
			t.Errorf("variant %d = %v, want %v", i, got, want[i])
		}
	}
}
