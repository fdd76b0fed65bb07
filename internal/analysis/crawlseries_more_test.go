package analysis

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/netgen"
)

func TestCrawlSeriesScanSampling(t *testing.T) {
	// A sampled scan must estimate the responsive count close to the
	// full scan's, at a fraction of the probes.
	u, err := netgen.Generate(netgen.DefaultParams(31, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunCrawlSeriesOn(context.Background(), u, CrawlSeriesConfig{
		Experiments:            4,
		ScannerStartExperiment: 0,
		ScanSampleFraction:     1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := RunCrawlSeriesOn(context.Background(), u, CrawlSeriesConfig{
		Experiments:            4,
		ScannerStartExperiment: 0,
		ScanSampleFraction:     0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.TotalResponsive == 0 {
		t.Fatal("full scan found nothing")
	}
	ratio := float64(sampled.TotalResponsive) / float64(full.TotalResponsive)
	if ratio < 0.7 || ratio > 1.3 {
		t.Errorf("sampled/full responsive ratio = %.2f, want ≈1", ratio)
	}
}

func TestCrawlSeriesSampledTotalMatchesCumulative(t *testing.T) {
	// At a fraction whose inverse is not an integer the total and the
	// per-experiment cumulative count must still scale by one factor:
	// after the last experiment they count the same union.
	u, err := netgen.Generate(netgen.DefaultParams(31, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCrawlSeriesOn(context.Background(), u, CrawlSeriesConfig{
		Experiments:            4,
		ScannerStartExperiment: 0,
		ScanSampleFraction:     0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Experiments[len(res.Experiments)-1]
	if res.TotalResponsive == 0 {
		t.Fatal("sampled scan found nothing")
	}
	if last.CumulativeResponsive != res.TotalResponsive {
		t.Errorf("last CumulativeResponsive = %d, TotalResponsive = %d",
			last.CumulativeResponsive, res.TotalResponsive)
	}
}

func TestCrawlSeriesOnReusedUniverse(t *testing.T) {
	// Two runs on the same universe must agree exactly (determinism).
	u, err := netgen.Generate(netgen.DefaultParams(32, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	cfg := CrawlSeriesConfig{Experiments: 3, ScannerStartExperiment: 99}
	a, err := RunCrawlSeriesOn(context.Background(), u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCrawlSeriesOn(context.Background(), u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalUniqueUnreachable != b.TotalUniqueUnreachable {
		t.Errorf("unreachable totals differ: %d vs %d",
			a.TotalUniqueUnreachable, b.TotalUniqueUnreachable)
	}
	if a.UniqueConnected != b.UniqueConnected {
		t.Errorf("connected totals differ: %d vs %d", a.UniqueConnected, b.UniqueConnected)
	}
	for i := range a.Experiments {
		if a.Experiments[i].Connected != b.Experiments[i].Connected {
			t.Fatalf("experiment %d differs between identical runs", i)
		}
	}
}

func TestCrawlSeriesWorkerCountInvariance(t *testing.T) {
	// The golden determinism guarantee for the parallel fan-out: the
	// whole longitudinal study — every per-experiment stat, the
	// cumulative unions, the malicious ranking, the censuses — is
	// byte-identical between sequential and parallel runs.
	u, err := netgen.Generate(netgen.DefaultParams(34, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(workers int) *CrawlSeriesResult {
		res, err := RunCrawlSeriesOn(context.Background(), u, CrawlSeriesConfig{
			Experiments:            4,
			ScannerStartExperiment: 1,
			Workers:                workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par4 := runWith(1), runWith(4)
	if !reflect.DeepEqual(seq, par4) {
		t.Error("series results differ between workers=1 and workers=4")
	}
	// JSON bytes are the artifact format (CSV/report export), so compare
	// those too: equal structs must serialize identically.
	seqJSON, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := json.Marshal(par4)
	if err != nil {
		t.Fatal(err)
	}
	if string(seqJSON) != string(parJSON) {
		t.Error("serialized series differ between workers=1 and workers=4")
	}
}
