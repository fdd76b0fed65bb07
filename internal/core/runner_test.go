package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// runnerSubset is a fast cross-section of the registry for the
// parallel-vs-sequential golden test: the two snapshot churn figures,
// the synchronized-departure contrast, the crawl-backed ADDR mix, and
// the chaos scenario (whose report carries a trace digest, extending the
// determinism check to the obs layer).
func runnerSubset(t *testing.T) []Experiment {
	ids := []string{"fig12", "fig13", "syncdep", "addrmix", "chaos"}
	if testing.Short() {
		ids = []string{"fig12", "fig13", "syncdep"}
	}
	var exps []Experiment
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps = append(exps, e)
	}
	return exps
}

// readDir returns a map of file name to contents for a flat directory.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = string(data)
	}
	return out
}

// TestRunnerParallelMatchesSequential is the engine's determinism
// contract: Workers: 4 must produce byte-identical rendered output and
// CSV sidecars (including the chaos trace digest) to Workers: 1.
func TestRunnerParallelMatchesSequential(t *testing.T) {
	exps := runnerSubset(t)
	opts := Options{Seed: 3, Quick: true}

	var seqOut, parOut bytes.Buffer
	seqDir, parDir := t.TempDir(), t.TempDir()

	seq := Runner{Workers: 1, Options: opts, CSVDir: seqDir}
	if err := seq.Run(context.Background(), exps, &seqOut); err != nil {
		t.Fatal(err)
	}
	par := Runner{Workers: 4, Options: opts, CSVDir: parDir}
	if err := par.Run(context.Background(), exps, &parOut); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(seqOut.Bytes(), parOut.Bytes()) {
		t.Errorf("rendered output differs between Workers=1 (%d bytes) and Workers=4 (%d bytes)",
			seqOut.Len(), parOut.Len())
	}
	seqCSV, parCSV := readDir(t, seqDir), readDir(t, parDir)
	if len(seqCSV) == 0 {
		t.Fatal("sequential run wrote no CSVs")
	}
	if len(seqCSV) != len(parCSV) {
		t.Fatalf("CSV file count differs: %d sequential vs %d parallel", len(seqCSV), len(parCSV))
	}
	for name, want := range seqCSV {
		if got, ok := parCSV[name]; !ok {
			t.Errorf("parallel run missing CSV %s", name)
		} else if got != want {
			t.Errorf("CSV %s differs between worker counts", name)
		}
	}
}

// TestRunnerCancellation checks Runner.Run returns promptly with
// ctx.Err() when cancelled mid-run, even while experiments block.
func TestRunnerCancellation(t *testing.T) {
	started := make(chan struct{}, 4)
	blocking := func(id string) Experiment {
		return Experiment{
			ID: id,
			Run: func(ctx context.Context, _ Options) (*Report, error) {
				started <- struct{}{}
				<-ctx.Done()
				return nil, ctx.Err()
			},
		}
	}
	exps := []Experiment{blocking("a"), blocking("b"), blocking("c"), blocking("d")}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		r := Runner{Workers: 2, Options: Options{Quick: true}}
		done <- r.Run(ctx, exps, &out)
	}()
	<-started
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Runner.Run did not return after cancellation")
	}
	if out.Len() != 0 {
		t.Errorf("cancelled run emitted %d bytes", out.Len())
	}
}

// TestRunnerCancellationMidMerge cancels after some reports have been
// emitted and checks two robustness properties the reprod service
// depends on: emitted output consists only of whole reports (a blocked
// job's buffer is never partially copied), and the Runner's worker
// goroutines all exit once the blocked experiments observe the
// cancellation — no leak survives.
func TestRunnerCancellationMidMerge(t *testing.T) {
	before := runtime.NumGoroutine()

	fast := Experiment{ID: "fast", Run: func(context.Context, Options) (*Report, error) {
		rep := &Report{ID: "fast", Title: "fast"}
		rep.AddMetric("v", "1", "")
		return rep, nil
	}}
	blockedStarted := make(chan struct{})
	blocked := Experiment{ID: "blocked", Run: func(ctx context.Context, _ Options) (*Report, error) {
		close(blockedStarted)
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	exps := []Experiment{fast, blocked, fast, fast}

	ctx, cancel := context.WithCancel(context.Background())
	var out safeBuffer
	done := make(chan error, 1)
	go func() {
		r := Runner{Workers: 2, Options: Options{Quick: true}}
		done <- r.Run(ctx, exps, &out)
	}()

	// Wait until the first report has been merged and the blocker is
	// mid-run, then cancel: the merge loop is now parked on job 1.
	<-blockedStarted
	waitFor(t, func() bool { return out.Len() > 0 })
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Runner.Run did not return after mid-merge cancellation")
	}

	// Whole-report invariant: everything emitted is the fast report,
	// nothing from the blocked job, no torn tail.
	got := out.String()
	if !strings.HasPrefix(got, "== fast —") || !strings.HasSuffix(got, "\n\n") {
		t.Errorf("emitted output is not a whole report:\n%q", got)
	}
	if strings.Contains(got, "blocked") {
		t.Errorf("cancelled job leaked output:\n%q", got)
	}

	// Leak check: all pool goroutines exit once their ctx fires.
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before+2 })
}

// safeBuffer is a mutex-guarded bytes.Buffer: the merge loop writes it
// while the test polls Len.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls cond for up to 10 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRunnerKeepGoing checks a failing and a panicking experiment are
// both contained: every healthy report is still emitted in order, and
// the aggregate *BatchError names the failures.
func TestRunnerKeepGoing(t *testing.T) {
	sentinel := errors.New("boom")
	ok := func(id string) Experiment {
		return Experiment{ID: id, Run: func(context.Context, Options) (*Report, error) {
			return &Report{ID: id, Title: id}, nil
		}}
	}
	bad := Experiment{ID: "bad", Run: func(context.Context, Options) (*Report, error) {
		return nil, sentinel
	}}
	angry := Experiment{ID: "angry", Run: func(context.Context, Options) (*Report, error) {
		panic("kaboom")
	}}
	exps := []Experiment{ok("a"), bad, ok("c"), angry, ok("e")}

	for _, workers := range []int{1, 3} {
		var out bytes.Buffer
		r := Runner{Workers: workers, Options: Options{Quick: true}, KeepGoing: true}
		err := r.Run(context.Background(), exps, &out)

		var batch *BatchError
		if !errors.As(err, &batch) {
			t.Fatalf("workers=%d: got %v (%T), want *BatchError", workers, err, err)
		}
		if len(batch.Failures) != 2 || batch.Total != 5 {
			t.Fatalf("workers=%d: failures = %+v, total = %d", workers, batch.Failures, batch.Total)
		}
		if batch.Failures[0].ID != "bad" || batch.Failures[1].ID != "angry" {
			t.Errorf("workers=%d: failure IDs = %s, %s", workers,
				batch.Failures[0].ID, batch.Failures[1].ID)
		}
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: errors.Is(err, sentinel) = false", workers)
		}
		var pe *par.PanicError
		if !errors.As(err, &pe) {
			t.Errorf("workers=%d: panic not surfaced via errors.As", workers)
		}
		for _, id := range []string{"a", "c", "e"} {
			if !bytes.Contains(out.Bytes(), []byte("== "+id+" —")) {
				t.Errorf("workers=%d: healthy report %s missing", workers, id)
			}
		}
		if bytes.Contains(out.Bytes(), []byte("bad")) || bytes.Contains(out.Bytes(), []byte("angry")) {
			t.Errorf("workers=%d: failed experiment leaked into output", workers)
		}
	}
}

// TestRunnerTraceEvents checks the progress tracer sees one start and
// one terminal event per experiment, with failures labelled exp.fail.
func TestRunnerTraceEvents(t *testing.T) {
	exps := []Experiment{
		{ID: "x", Run: func(context.Context, Options) (*Report, error) {
			return &Report{ID: "x", Title: "x"}, nil
		}},
		{ID: "y", Run: func(context.Context, Options) (*Report, error) {
			return nil, errors.New("nope")
		}},
	}
	tracer := obs.NewTracer(64, nil)
	var out bytes.Buffer
	r := Runner{Workers: 2, Options: Options{Quick: true}, Trace: tracer, KeepGoing: true}
	if err := r.Run(context.Background(), exps, &out); err == nil {
		t.Fatal("expected a BatchError")
	}
	counts := map[string]int{}
	var failDetail string
	for _, ev := range tracer.Events() {
		counts[ev.Kind]++
		if ev.Kind == "exp.fail" {
			failDetail = ev.Detail
		}
	}
	if counts["exp.start"] != 2 || counts["exp.done"] != 1 || counts["exp.fail"] != 1 {
		t.Errorf("event counts = %v", counts)
	}
	if !strings.Contains(failDetail, "y") || !strings.Contains(failDetail, "nope") {
		t.Errorf("exp.fail detail = %q", failDetail)
	}
}

// TestCSVFilesMatchWriteCSV checks the in-memory artifact renderer and
// the directory writer produce identical file sets.
func TestCSVFilesMatchWriteCSV(t *testing.T) {
	rep := &Report{ID: "art", Title: "artifacts"}
	rep.AddMetric("m", "1", "2")
	rep.Tables = append(rep.Tables, Table{
		Name:   "series one",
		Header: []string{"x", "y"},
		Rows:   [][]string{{"1", "2"}, {"3", "4"}},
	})
	files, err := rep.CSVFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("CSVFiles returned %d files, want 2", len(files))
	}
	dir := t.TempDir()
	if err := rep.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	onDisk := readDir(t, dir)
	if len(onDisk) != len(files) {
		t.Fatalf("disk has %d files, CSVFiles %d", len(onDisk), len(files))
	}
	for _, f := range files {
		if got, ok := onDisk[f.Name]; !ok {
			t.Errorf("WriteCSV missing %s", f.Name)
		} else if got != string(f.Data) {
			t.Errorf("%s differs between CSVFiles and WriteCSV", f.Name)
		}
	}
}

// TestRunnerErrorPropagation checks the first failing experiment's error
// is returned wrapped with its ID and that later reports are withheld.
func TestRunnerErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom")
	ok := func(id string) Experiment {
		return Experiment{
			ID: id,
			Run: func(context.Context, Options) (*Report, error) {
				return &Report{ID: id, Title: id}, nil
			},
		}
	}
	bad := Experiment{
		ID: "bad",
		Run: func(context.Context, Options) (*Report, error) {
			return nil, sentinel
		},
	}
	exps := []Experiment{ok("a"), bad, ok("c")}

	for _, workers := range []int{1, 3} {
		var out bytes.Buffer
		r := Runner{Workers: workers, Options: Options{Quick: true}}
		err := r.Run(context.Background(), exps, &out)
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: got %v, want wrapped sentinel", workers, err)
		}
		if got := err.Error(); got != "core: bad: boom" {
			t.Errorf("workers=%d: error = %q, want %q", workers, got, "core: bad: boom")
		}
		if !bytes.Contains(out.Bytes(), []byte("== a —")) {
			t.Errorf("workers=%d: report before the failure was not emitted", workers)
		}
		if bytes.Contains(out.Bytes(), []byte("== c —")) {
			t.Errorf("workers=%d: report after the failure was emitted", workers)
		}
	}
}

// TestRunnerProfiles checks the Profiles writer gets exactly one labelled
// resources line per experiment, in experiment order, and the report
// stream gets none.
func TestRunnerProfiles(t *testing.T) {
	exps := []Experiment{
		{ID: "x", Run: func(context.Context, Options) (*Report, error) {
			return &Report{ID: "x", Title: "x"}, nil
		}},
		{ID: "y", Run: func(context.Context, Options) (*Report, error) {
			return &Report{ID: "y", Title: "y"}, nil
		}},
	}
	var out, profs bytes.Buffer
	r := Runner{Workers: 2, Options: Options{Quick: true}, Profiles: &profs}
	if err := r.Run(context.Background(), exps, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(profs.String(), "\n"), "\n")
	if len(lines) != 2 ||
		!strings.HasPrefix(lines[0], "  resources: x wall=") ||
		!strings.HasPrefix(lines[1], "  resources: y wall=") {
		t.Errorf("Profiles = %q, want one resources line each for x then y", profs.String())
	}
	if bytes.Contains(out.Bytes(), []byte("resources:")) {
		t.Error("resources line leaked into the report stream")
	}
}

// BenchmarkRunnerFanOut measures the engine's per-experiment overhead:
// dispatch, buffering, and in-order merge over cheap synthetic jobs on
// four workers.
func BenchmarkRunnerFanOut(b *testing.B) {
	exps := make([]Experiment, 16)
	for i := range exps {
		id := fmt.Sprintf("synth%02d", i)
		exps[i] = Experiment{ID: id, Run: func(context.Context, Options) (*Report, error) {
			rep := &Report{ID: id, Title: "synthetic"}
			rep.AddMetric("value", "1", "")
			return rep, nil
		}}
	}
	r := Runner{Workers: 4, Options: Options{Quick: true}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out bytes.Buffer
		if err := r.Run(context.Background(), exps, &out); err != nil {
			b.Fatal(err)
		}
	}
}
