package core

import (
	"context"
	"go/build"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig10", "fig11", "fig12", "fig13",
		"fig_interv",
		"table1", "addrmix", "resync", "syncdep", "hijack",
		"chaos",
	}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for _, id := range want {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q missing", id)
		}
		if e.Title == "" || e.Section == "" || e.Run == nil {
			t.Errorf("experiment %q incompletely described", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID found a nonexistent experiment")
	}
}

func TestExperimentsSorted(t *testing.T) {
	es := Experiments()
	for i := 1; i < len(es); i++ {
		if es[i].ID < es[i-1].ID {
			t.Fatal("Experiments() not sorted by ID")
		}
	}
}

// TestDocsResolve checks that the documents name only what exists:
// every `reproduce -id <x>` in README.md, DESIGN.md, EXPERIMENTS.md and
// the verify skill is a registered experiment, every `go run ./<path>`
// names a directory holding a main package, every backticked Go file
// exists (a path from the module root, or a bare name that some package
// holds), and none names examples/.
func TestDocsResolve(t *testing.T) {
	const root = "../.."
	idRe := regexp.MustCompile(`(?:^|\s)-id[ =]([A-Za-z_]\w*)`)
	runRe := regexp.MustCompile(`go run \./((?:[\w-]+/)*[\w-]+)`)
	codeRe := regexp.MustCompile("`[^`]+`")
	// A file name starts with a letter or digit, so the bare suffix
	// `_test.go` is not one; a `:line` suffix is allowed.
	fileRe := regexp.MustCompile(`^((?:[\w-]+/)*[A-Za-z0-9][\w-]*\.go)(?::\S*)?$`)
	goFiles := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".go") {
			goFiles[d.Name()] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(text), "\n") {
			if strings.Contains(line, "reproduce") {
				for _, m := range idRe.FindAllStringSubmatch(line, -1) {
					if _, ok := ByID(m[1]); !ok {
						t.Errorf("%s:%d: reproduce -id %s names no registered experiment", doc, n+1, m[1])
					}
				}
			}
			for _, m := range runRe.FindAllStringSubmatch(line, -1) {
				if pkg, err := build.ImportDir(filepath.Join(root, m[1]), 0); err != nil || pkg.Name != "main" {
					t.Errorf("%s:%d: go run ./%s names no main package", doc, n+1, m[1])
				}
			}
			for _, span := range codeRe.FindAllString(line, -1) {
				for _, field := range strings.Fields(strings.Trim(span, "`")) {
					m := fileRe.FindStringSubmatch(field)
					if m == nil {
						continue
					}
					if strings.Contains(m[1], "/") {
						if _, err := os.Stat(filepath.Join(root, m[1])); err != nil {
							t.Errorf("%s:%d: %s names no file", doc, n+1, m[1])
						}
					} else if !goFiles[m[1]] {
						t.Errorf("%s:%d: no package holds a file %s", doc, n+1, m[1])
					}
				}
			}
			if strings.Contains(line, "examples/") {
				t.Errorf("%s:%d: names examples/, which no longer exists", doc, n+1)
			}
		}
	}
}

// TestRunEveryExperimentQuick exercises the full registry at smoke scale.
// This is the repository's broadest integration test: every substrate
// (wire, addrman, node, simnet, netgen, crawler, churn, stats) runs under
// every experiment.
func TestRunEveryExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still take tens of seconds")
	}
	opts := Options{Seed: 3, Quick: true}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(context.Background(), opts)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if rep.ID != e.ID {
				t.Errorf("report ID %q != experiment ID %q", rep.ID, e.ID)
			}
			if len(rep.Metrics) == 0 && len(rep.Tables) == 0 {
				t.Error("empty report")
			}
			var sb strings.Builder
			if err := rep.Render(&sb); err != nil {
				t.Fatalf("render: %v", err)
			}
			if !strings.Contains(sb.String(), e.ID) {
				t.Error("render lacks experiment ID")
			}
		})
	}
}

func TestReportRenderAndCSV(t *testing.T) {
	rep := &Report{ID: "demo", Title: "Demo"}
	rep.AddMetric("alpha", "1", "2")
	rep.AddMetricf("beta", 3.14159, "%.2f", "")
	rep.Notes = append(rep.Notes, "a note")
	rep.Tables = append(rep.Tables, Table{
		Name:   "series one",
		Header: []string{"x", "y"},
		Rows:   [][]string{{"1", "2"}, {"3", "4"}},
	})

	var sb strings.Builder
	if err := rep.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"demo", "alpha", "paper: 2", "3.14", "a note", "series one"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}

	dir := t.TempDir()
	if err := rep.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	table, err := os.ReadFile(filepath.Join(dir, "demo_series_one.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(table), "x,y") {
		t.Errorf("csv content: %q", table)
	}
	metrics, err := os.ReadFile(filepath.Join(dir, "demo_metrics.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "alpha,1,2") {
		t.Errorf("metrics csv content: %q", metrics)
	}
}

func TestRenderTruncatesLongTables(t *testing.T) {
	rep := &Report{ID: "big", Title: "Big"}
	tbl := Table{Name: "long", Header: []string{"i"}}
	for i := 0; i < 100; i++ {
		tbl.Rows = append(tbl.Rows, []string{"row"})
	}
	rep.Tables = append(rep.Tables, tbl)
	var sb strings.Builder
	if err := rep.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "more rows") {
		t.Error("long table not truncated in render")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Seed != 1 || o.Scale != 0.30 || o.NetSize != 120 {
		t.Errorf("full defaults = %+v", o)
	}
	q := Options{Quick: true}.withDefaults()
	if q.Scale != 0.02 || q.NetSize != 40 {
		t.Errorf("quick defaults = %+v", q)
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("a b/c:d-e_f"); got != "a_b_c_d-e_f" {
		t.Errorf("sanitize = %q", got)
	}
}

// TestChaosHealthMatchesRegistry checks that each node-defence total
// chaos reports equals the counter of the same name in its own
// obs-metrics table, which counts across node restarts.
func TestChaosHealthMatchesRegistry(t *testing.T) {
	e, _ := ByID("chaos")
	rep, err := e.Run(context.Background(), Options{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	counters := map[string]string{}
	for _, tbl := range rep.Tables {
		if tbl.Name != "obs-metrics" {
			continue
		}
		for _, row := range tbl.Rows {
			if row[0] == "counter" {
				counters[row[1]] = row[2]
			}
		}
	}
	metrics := map[string]string{}
	for _, m := range rep.Metrics {
		metrics[m.Name] = m.Value
	}
	for label, name := range map[string]string{
		"keepalive pings":       "node.ping.sent",
		"stall evictions":       "node.evict.stall",
		"block-stall evictions": "node.evict.blockstall",
		"handshake evictions":   "node.evict.handshake",
		"dial backoffs armed":   "node.backoff.armed",
	} {
		got, ok := metrics[label]
		if !ok {
			t.Errorf("report has no %q metric", label)
			continue
		}
		if want := counters[name]; got != want {
			t.Errorf("%s = %s, but counter %s = %s", label, got, name, want)
		}
	}
}
