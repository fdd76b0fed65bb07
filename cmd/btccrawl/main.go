// Command btccrawl runs one crawl experiment (Algorithm 1) and optionally
// the responsive scan (Algorithm 2) against a synthetic Bitcoin universe,
// printing the snapshot the paper's Figures 3–5 are built from.
//
// Usage:
//
//	btccrawl [-scale 0.05] [-seed 1] [-day 10] [-scan] [-malicious]
//	         [-series 0] [-csv series.csv] [-workers 0]
//	         [-pprof] [-pprof-addr 127.0.0.1:6060]
//
// With -series N the single-day snapshot is replaced by the full
// longitudinal study over the first N crawl experiments (Figures 3-5);
// Ctrl-C cancels between crawls. -csv (with -series) writes one row per
// crawl experiment as it finishes, flushed row by row, so even a run
// interrupted mid-series leaves a complete, parseable CSV of every
// finished experiment.
//
// -workers sets the crawl/scan fan-out width (0 = GOMAXPROCS). Results
// are byte-identical at any width; timing goes to stderr so stdout can
// be diffed across worker counts.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/crawler"
	"repro/internal/netgen"
	"repro/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "btccrawl:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scale     = flag.Float64("scale", 0.05, "population scale (1.0 = the paper's 694K addresses)")
		seed      = flag.Int64("seed", 1, "random seed")
		day       = flag.Int("day", 10, "crawl day within the 60-day horizon (0-59)")
		scan      = flag.Bool("scan", false, "also run the responsive scan (Algorithm 2)")
		malicious = flag.Bool("malicious", false, "report suspected ADDR flooders")
		series    = flag.Int("series", 0, "run the longitudinal study over this many crawl experiments instead of one snapshot")
		csvOut    = flag.String("csv", "", "with -series: write one CSV row per crawl experiment as it finishes (flushed per row)")
		workers   = flag.Int("workers", 0, "crawl/scan fan-out width (0 = GOMAXPROCS; output is identical at any width)")
		pprof     = flag.Bool("pprof", false, "serve net/http/pprof profiles while the crawl runs")
		pprofAddr = flag.String("pprof-addr", "127.0.0.1:6060", "pprof listen address (with -pprof; port 0 picks a free port)")
	)
	flag.Parse()
	if err := validateFlags(*day, *series, *csvOut); err != nil {
		fmt.Fprintln(os.Stderr, "btccrawl:", err)
		flag.Usage()
		os.Exit(2)
	}

	// The crawl counters (crawl.dials, crawl.connected, ...) always
	// accumulate here; -pprof additionally serves them live at /metrics
	// in Prometheus text format.
	reg := obs.NewRegistry()
	if *pprof {
		srv, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		defer srv.Close()
		srv.Handle("/metrics", obs.PrometheusHandler(reg))
		fmt.Printf("pprof listening on http://%s/debug/pprof/ (metrics at /metrics)\n", srv.Addr)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	params := netgen.DefaultParams(*seed, *scale)
	if *series > 0 {
		cfg := analysis.CrawlSeriesConfig{
			Params:      params,
			Experiments: *series,
			Workers:     *workers,
			Metrics:     reg,
		}
		seriesClose := func() error { return nil }
		if *csvOut != "" {
			sw, err := newSeriesCSV(*csvOut)
			if err != nil {
				return err
			}
			cfg.OnExperiment = sw.row
			seriesClose = sw.close
			// Backstop close: a Ctrl-C that cancels the series mid-loop
			// still syncs what the per-row flushes already put on disk.
			defer seriesClose() //nolint:errcheck // explicit call below reports it
		}
		start := time.Now()
		res, err := analysis.RunCrawlSeries(ctx, cfg)
		if cerr := seriesClose(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "series of %d crawl experiments done in %v\n",
			len(res.Experiments), time.Since(start).Round(time.Millisecond))
		fmt.Printf("series of %d crawl experiments\n", len(res.Experiments))
		fmt.Printf("unique reachable %d, cumulative unreachable %d, mean connected %.0f\n",
			res.UniqueConnected, res.TotalUniqueUnreachable, res.MeanConnected)
		fmt.Printf("mean ADDR reachable share %.1f%%, flagged flooders %d\n",
			100*res.MeanAddrReachableShare, len(res.Malicious))
		return nil
	}

	fmt.Fprintf(os.Stderr, "generating universe (scale %.2f)...\n", *scale)
	u, err := netgen.Generate(params)
	if err != nil {
		return err
	}
	at := params.Epoch.Add(time.Duration(*day) * 24 * time.Hour)
	view := crawler.NewUniverseView(u, at)
	seedView := u.SeedViewAt(at)
	fmt.Printf("seed databases: bitnodes=%d dns=%d common=%d excluded=%d/%d\n",
		len(seedView.Bitnodes), len(seedView.DNS), seedView.Common,
		seedView.BitnodesExcluded, seedView.DNSExcluded)

	targets := crawler.TargetsOf(seedView)
	known := crawler.ReachableReference(seedView)
	start := time.Now()
	c := crawler.New(crawler.Config{Metrics: reg, Workers: *workers, Index: u.Index}, view)
	snap, err := c.Crawl(ctx, at, targets, known)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "crawl done in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("crawl: dialed %d, connected %d\n", snap.Dialed, len(snap.Connected))
	r, unr := snap.AddrComposition()
	fmt.Printf("collected %d unreachable addresses; ADDR mix %.1f%% reachable / %.1f%% unreachable\n",
		len(snap.Unreachable), 100*r, 100*unr)

	if *malicious {
		suspects := snap.SuspectedMalicious(50)
		fmt.Printf("suspected flooders: %d\n", len(suspects))
		for i, s := range suspects {
			if i >= 15 {
				fmt.Printf("  ... and %d more\n", len(suspects)-15)
				break
			}
			asn, _ := u.Alloc.ASNOf(s.Addr.Addr())
			fmt.Printf("  %v (AS%d): %d unreachable addresses, 0 reachable\n",
				s.Addr, asn, s.UnreachableSent)
		}
	}

	if *scan {
		start = time.Now()
		res, err := crawler.ScanWith(ctx, crawler.ScanConfig{Workers: *workers, Metrics: reg, IDs: snap.UnreachableIDs},
			at, view, snap.Unreachable)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "scan done in %v\n", time.Since(start).Round(time.Millisecond))
		fmt.Printf("scan: probed %d, responsive %d (%.1f%%), misclassified-reachable %d\n",
			res.Probed, len(res.Responsive),
			sharePct(len(res.Responsive), res.Probed),
			len(res.ReachableSurprises))
	}
	return nil
}

// validateFlags rejects, before any work, the flag values that would
// otherwise run quietly into nothing: a crawl day outside the
// measurement horizon connects to no node, a negative series falls back
// to the snapshot mode, and the snapshot mode has no series to write to
// -csv.
func validateFlags(day, series int, csvOut string) error {
	days := int(netgen.Horizon / (24 * time.Hour))
	switch {
	case day < 0 || day >= days:
		return fmt.Errorf("-day must lie in [0, %d), got %d", days, day)
	case series < 0:
		return fmt.Errorf("-series must not be negative, got %d", series)
	case csvOut != "" && series == 0:
		return fmt.Errorf("-csv requires -series (the snapshot mode has no series to write)")
	}
	return nil
}

// sharePct returns part as a percentage of whole, and 0 for an empty
// whole: a crawl that collected no unreachable address scans nothing.
func sharePct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// seriesCSV lands one crawl experiment per row, flushed row by row, so
// a series interrupted by Ctrl-C still leaves a complete CSV of every
// experiment that finished. Errors are sticky and reported by close.
type seriesCSV struct {
	f    *os.File
	w    *csv.Writer
	once sync.Once
	err  error
}

// seriesHeader is the column order of the per-experiment series CSV.
var seriesHeader = []string{
	"index", "time",
	"bitnodes", "dns", "common",
	"bitnodes_excluded", "dns_excluded", "common_excluded",
	"dialed", "connected", "connected_dns_only",
	"unique_unreachable", "cumulative_unreachable",
	"responsive", "cumulative_responsive",
	"reachable_share", "unreachable_share",
}

func newSeriesCSV(path string) (*seriesCSV, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("csv: %w", err)
	}
	s := &seriesCSV{f: f, w: csv.NewWriter(f)}
	if err := s.w.Write(seriesHeader); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("csv: %w", err)
	}
	s.w.Flush()
	if err := s.w.Error(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("csv: %w", err)
	}
	return s, nil
}

// row appends one experiment (the CrawlSeriesConfig.OnExperiment hook).
func (s *seriesCSV) row(st analysis.ExperimentStats) {
	if s.err != nil {
		return
	}
	rec := []string{
		strconv.Itoa(st.Index), st.Time.UTC().Format(time.RFC3339),
		strconv.Itoa(st.Bitnodes), strconv.Itoa(st.DNS), strconv.Itoa(st.Common),
		strconv.Itoa(st.BitnodesExcluded), strconv.Itoa(st.DNSExcluded), strconv.Itoa(st.CommonExcluded),
		strconv.Itoa(st.Dialed), strconv.Itoa(st.Connected), strconv.Itoa(st.ConnectedDNSOnly),
		strconv.Itoa(st.UniqueUnreachable), strconv.Itoa(st.CumulativeUnreachable),
		strconv.Itoa(st.Responsive), strconv.Itoa(st.CumulativeResponsive),
		strconv.FormatFloat(st.ReachableShare, 'f', 6, 64),
		strconv.FormatFloat(st.UnreachableShare, 'f', 6, 64),
	}
	if err := s.w.Write(rec); err != nil {
		s.err = err
		return
	}
	// Flush per row: the file on disk is always header + whole rows.
	s.w.Flush()
	if err := s.w.Error(); err != nil {
		s.err = err
	}
}

// close flushes, syncs, and closes the file once; safe to call from
// both the deferred backstop and the explicit error-reporting site.
func (s *seriesCSV) close() error {
	s.once.Do(func() {
		s.w.Flush()
		if err := s.w.Error(); err != nil && s.err == nil {
			s.err = err
		}
		if err := s.f.Sync(); err != nil && s.err == nil {
			s.err = err
		}
		if err := s.f.Close(); err != nil && s.err == nil {
			s.err = err
		}
	})
	if s.err != nil {
		return fmt.Errorf("csv: %w", s.err)
	}
	return nil
}
