package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
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

	var seqOut, parOut bytes.Buffer
	seqDir, parDir := t.TempDir(), t.TempDir()

	seq := Runner{Options: Options{Seed: 3, Quick: true, Workers: 1}, CSVDir: seqDir}
	if err := seq.Run(context.Background(), exps, &seqOut); err != nil {
		t.Fatal(err)
	}
	par := Runner{Options: Options{Seed: 3, Quick: true, Workers: 4}, CSVDir: parDir}
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
		r := Runner{Options: Options{Quick: true, Workers: 2}}
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
		r := Runner{Options: Options{Quick: true, Workers: 2}}
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
// the error joins one *JobError per failure in slice order.
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
		r := Runner{Options: Options{Quick: true, Workers: workers}}
		err := r.Run(context.Background(), exps, &out)

		joined, isJoin := err.(interface{ Unwrap() []error })
		if !isJoin {
			t.Fatalf("workers=%d: got %v (%T), want a joined error", workers, err, err)
		}
		failures := joined.Unwrap()
		if len(failures) != 2 {
			t.Fatalf("workers=%d: failures = %v", workers, failures)
		}
		for i, id := range []string{"bad", "angry"} {
			var je *JobError
			if !errors.As(failures[i], &je) || je.ID != id {
				t.Errorf("workers=%d: failure %d = %v, want the JobError of %s", workers, i, failures[i], id)
			}
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

// TestRunnerNilReport checks an experiment that returns neither a report
// nor an error fails as a *JobError instead of hanging the batch: with it
// first among five, Run returns within a bound at one and two workers,
// with one failure and the four other reports rendered in order.
func TestRunnerNilReport(t *testing.T) {
	ok := func(id string) Experiment {
		return Experiment{ID: id, Run: func(context.Context, Options) (*Report, error) {
			return &Report{ID: id, Title: id}, nil
		}}
	}
	empty := Experiment{ID: "empty", Run: func(context.Context, Options) (*Report, error) {
		return nil, nil
	}}
	exps := []Experiment{empty, ok("a"), ok("b"), ok("c"), ok("d")}

	for _, workers := range []int{1, 2} {
		var out safeBuffer
		done := make(chan error, 1)
		go func() {
			r := Runner{Options: Options{Quick: true, Workers: workers}}
			done <- r.Run(context.Background(), exps, &out)
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: Run did not return", workers)
		}
		var je *JobError
		if !errors.As(err, &je) || je.ID != "empty" || !errors.Is(err, errNilReport) {
			t.Fatalf("workers=%d: Run returned %v, want the JobError of empty", workers, err)
		}
		if failures := err.(interface{ Unwrap() []error }).Unwrap(); len(failures) != 1 {
			t.Errorf("workers=%d: failures = %v, want one", workers, failures)
		}
		var headers []string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "== ") {
				headers = append(headers, line)
			}
		}
		want := "== a — a ==,== b — b ==,== c — c ==,== d — d =="
		if got := strings.Join(headers, ","); got != want {
			t.Errorf("workers=%d: rendered report headers %q, want %q", workers, got, want)
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
	r := Runner{Options: Options{Quick: true, Workers: 2}, Trace: tracer}
	if err := r.Run(context.Background(), exps, &out); err == nil {
		t.Fatal("expected y's failure")
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

// TestRunnerErrorPropagation checks a single failing experiment's error
// reads "core: <id>: <cause>" and wraps the cause, and that it costs no
// other report: those before and after it are both emitted.
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
		r := Runner{Options: Options{Quick: true, Workers: workers}}
		err := r.Run(context.Background(), exps, &out)
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: got %v, want wrapped sentinel", workers, err)
		}
		if got := err.Error(); got != "core: bad: boom" {
			t.Errorf("workers=%d: error = %q, want %q", workers, got, "core: bad: boom")
		}
		if got := out.String(); !strings.HasPrefix(got, "== a —") || !strings.Contains(got, "== c —") {
			t.Errorf("workers=%d: want the reports of a then c, got:\n%s", workers, got)
		}
	}
}

// TestRunnerCollect checks Collect gets each finished report once, in
// experiment order, with its resource window; the report stream gets no
// resource figures.
func TestRunnerCollect(t *testing.T) {
	exps := []Experiment{
		{ID: "x", Run: func(context.Context, Options) (*Report, error) {
			return &Report{ID: "x", Title: "x"}, nil
		}},
		{ID: "y", Run: func(context.Context, Options) (*Report, error) {
			return &Report{ID: "y", Title: "y"}, nil
		}},
	}
	var out bytes.Buffer
	var ids []string
	r := Runner{Options: Options{Quick: true, Workers: 2}, Collect: func(rep *Report, res obs.ResourceStats) {
		ids = append(ids, rep.ID)
		if res.WallNS <= 0 || res.PeakHeapBytes == 0 || res.PeakGoroutines == 0 {
			t.Errorf("%s: resource window unmeasured: %+v", rep.ID, res)
		}
	}}
	if err := r.Run(context.Background(), exps, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Join(ids, ",") != "x,y" {
		t.Errorf("Collect saw %v, want x then y", ids)
	}
	if bytes.Contains(out.Bytes(), []byte("wall=")) {
		t.Error("resource figures leaked into the report stream")
	}
}

// TestRunnerPeakHeap checks the Runner's own ticking sampler sees a heap
// peak that neither end of an experiment's window holds: the experiment
// keeps a 64 MiB buffer alive for several sampler intervals and frees it
// before returning. The ticker goroutine must be gone once Run returns.
func TestRunnerPeakHeap(t *testing.T) {
	const size = 64 << 20
	before := runtime.NumGoroutine()
	hold := Experiment{ID: "hold", Run: func(context.Context, Options) (*Report, error) {
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = byte(i)
		}
		time.Sleep(5 * sampleInterval)
		runtime.KeepAlive(buf)
		runtime.GC()
		return &Report{ID: "hold", Title: "hold"}, nil
	}}
	var peak uint64
	r := Runner{Options: Options{Quick: true, Workers: 1}, Collect: func(_ *Report, res obs.ResourceStats) {
		peak = res.PeakHeapBytes
	}}
	if err := r.Run(context.Background(), []Experiment{hold}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if peak < size {
		t.Errorf("PeakHeapBytes = %d, want at least the %d-byte buffer", peak, size)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
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
	r := Runner{Options: Options{Quick: true, Workers: 4}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out bytes.Buffer
		if err := r.Run(context.Background(), exps, &out); err != nil {
			b.Fatal(err)
		}
	}
}
