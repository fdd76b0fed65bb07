package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestEventsProcessed pins the deterministic event-count extraction: it
// sums the simnet.sched.executed.delta series and tolerates reports with
// no series at all.
func TestEventsProcessed(t *testing.T) {
	if got := EventsProcessed(nil); got != 0 {
		t.Errorf("nil report = %d, want 0", got)
	}
	if got := EventsProcessed(&Report{ID: "bare"}); got != 0 {
		t.Errorf("report without series = %d, want 0", got)
	}
	rep := &Report{ID: "sim", Series: &obs.SeriesSet{Series: []obs.Series{
		{Name: "other.metric", Points: []obs.Point{{V: 999}}},
		{Name: "simnet.sched.executed.delta", Points: []obs.Point{{V: 100}, {V: 250}, {V: 50}}},
	}}}
	if got := EventsProcessed(rep); got != 400 {
		t.Errorf("EventsProcessed = %d, want 400", got)
	}
}

// TestSelftestCrashHidden: the crash drill resolves by ID (the service
// and -id accept it) but never appears in Experiments(), so -all batches
// and the report corpus cannot trip over it.
func TestSelftestCrashHidden(t *testing.T) {
	e, ok := ByID(SelftestCrashID)
	if !ok || e.ID != SelftestCrashID {
		t.Fatalf("ByID(%q) = %+v, %v", SelftestCrashID, e, ok)
	}
	for _, listed := range Experiments() {
		if listed.ID == SelftestCrashID {
			t.Fatalf("%q leaked into Experiments()", SelftestCrashID)
		}
	}
}

// TestRunnerFlightRecordOnPanic drives the hidden crash drill through a
// fully wired Runner and checks the dumped flight record is well-formed:
// cause panic, a stack, trace events in emit order, and non-trivial
// resource watermarks from the drill's ballast.
func TestRunnerFlightRecordOnPanic(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "flightrec")
	fr, err := obs.OpenFlightRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	crash, _ := ByID(SelftestCrashID)
	healthy := Experiment{ID: "ok", Run: func(context.Context, Options) (*Report, error) {
		return &Report{ID: "ok", Title: "ok"}, nil
	}}

	tracer := obs.NewTracer(256, nil)
	var out bytes.Buffer
	r := Runner{
		Options:        Options{Quick: true, Workers: 2},
		Trace:          tracer,
		FlightRecorder: fr,
	}
	err = r.Run(context.Background(), []Experiment{healthy, crash}, &out)
	var je *JobError
	if !errors.As(err, &je) || je.ID != SelftestCrashID {
		t.Fatalf("Run = %v, want the one crash", err)
	}
	if !bytes.Contains(out.Bytes(), []byte("== ok —")) {
		t.Error("healthy report missing beside the crash")
	}

	rec, err := obs.ReadFlightRecord(filepath.Join(dir, obs.FlightRecordName(SelftestCrashID)))
	if err != nil {
		t.Fatalf("flight record unreadable: %v", err)
	}
	if rec.Cause != "panic" || rec.Key != SelftestCrashID {
		t.Errorf("record cause/key = %q/%q, want panic/%s", rec.Cause, rec.Key, SelftestCrashID)
	}
	if !strings.Contains(rec.Panic, "selftest_crash: induced panic") {
		t.Errorf("record panic value = %q", rec.Panic)
	}
	if !strings.Contains(rec.Stack, "goroutine") {
		t.Errorf("record stack missing:\n%s", rec.Stack)
	}
	// The drill allocates 2 MiB of ballast before panicking; the closing
	// window sample must have seen it.
	if rec.Resources.PeakHeapBytes == 0 || rec.Resources.AllocBytes < 2<<20 {
		t.Errorf("record resources too small: %+v", rec.Resources)
	}
	// Tracer ring rides along, oldest first.
	if rec.EventsTotal == 0 || len(rec.Events) == 0 {
		t.Fatalf("record carries no trace events: total=%d len=%d", rec.EventsTotal, len(rec.Events))
	}
	for i := 1; i < len(rec.Events); i++ {
		if rec.Events[i].Time.Before(rec.Events[i-1].Time) {
			t.Errorf("trace events out of emit order at %d", i)
		}
	}
	// The dump itself is traced, so operators can find the artifact.
	var dumped bool
	for _, ev := range tracer.Events() {
		if ev.Kind == "flightrec.dump" && strings.Contains(ev.Detail, obs.FlightRecordName(SelftestCrashID)) {
			dumped = true
		}
	}
	if !dumped {
		t.Error("no flightrec.dump trace event naming the artifact")
	}
}

// TestRunnerFlightRecordOnDeadline: an experiment killed by its context
// deadline dumps a record with cause "deadline" and no panic fields.
func TestRunnerFlightRecordOnDeadline(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "flightrec")
	fr, err := obs.OpenFlightRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	sleepy := Experiment{ID: "sleepy", Run: func(ctx context.Context, _ Options) (*Report, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	var out bytes.Buffer
	r := Runner{Options: Options{Quick: true, Workers: 1}, FlightRecorder: fr}
	if err := r.Run(ctx, []Experiment{sleepy}, &out); err == nil {
		t.Fatal("expected the deadline to surface as an error")
	}
	rec, err := obs.ReadFlightRecord(filepath.Join(dir, obs.FlightRecordName("sleepy")))
	if err != nil {
		t.Fatalf("flight record unreadable: %v", err)
	}
	if rec.Cause != "deadline" {
		t.Errorf("cause = %q, want deadline", rec.Cause)
	}
	if rec.Panic != "" || rec.Stack != "" {
		t.Errorf("deadline record carries panic fields: %q / %q", rec.Panic, rec.Stack)
	}
}

// TestRunnerFlightRecordWithoutSampler: a record dumped by a bare Runner
// (the CLI's -flightrec) carries live watermarks — the Runner samples on
// its own unpublished sampler.
func TestRunnerFlightRecordWithoutSampler(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "flightrec")
	fr, err := obs.OpenFlightRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	crash, ok := ByID(SelftestCrashID)
	if !ok {
		t.Fatalf("ByID(%q) not found", SelftestCrashID)
	}
	var out bytes.Buffer
	r := Runner{Options: Options{Quick: true, Workers: 1}, FlightRecorder: fr}
	if err := r.Run(context.Background(), []Experiment{crash}, &out); err == nil {
		t.Fatal("expected the induced panic to surface as an error")
	}
	rec, err := obs.ReadFlightRecord(filepath.Join(dir, obs.FlightRecordName(SelftestCrashID)))
	if err != nil {
		t.Fatalf("flight record unreadable: %v", err)
	}
	if rec.Resources.PeakHeapBytes == 0 || rec.Resources.AllocBytes == 0 {
		t.Errorf("record sampled nothing without an explicit sampler: %+v", rec.Resources)
	}
}

// TestRunnerNoFlightRecordOnPlainFailure: ordinary experiment errors are
// not crashes; the recorder must stay quiet for them.
func TestRunnerNoFlightRecordOnPlainFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "flightrec")
	fr, err := obs.OpenFlightRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad := Experiment{ID: "bad", Run: func(context.Context, Options) (*Report, error) {
		return nil, fmt.Errorf("ordinary failure")
	}}
	var out bytes.Buffer
	r := Runner{Options: Options{Quick: true, Workers: 1}, FlightRecorder: fr}
	if err := r.Run(context.Background(), []Experiment{bad}, &out); err == nil {
		t.Fatal("expected the failure to surface")
	}
	if _, err := obs.ReadFlightRecord(filepath.Join(dir, obs.FlightRecordName("bad"))); err == nil {
		t.Error("plain failure produced a flight record")
	}
}

// TestRunnerResourcesWorkerInvariance is the resource observatory's
// determinism contract: Workers: 1 and Workers: 4 produce byte-identical
// report output and CSVs, and the resource stats reach only Collect,
// once per experiment in experiment order, where cmd/reproduce formats
// them as its "  resources: <id>" lines.
func TestRunnerResourcesWorkerInvariance(t *testing.T) {
	mk := func(id string, seed int64) Experiment {
		return Experiment{ID: id, Run: func(_ context.Context, o Options) (*Report, error) {
			// A little real allocation so the window stats are non-trivial.
			buf := make([]byte, 256<<10)
			_ = buf
			rep := &Report{ID: id, Title: id}
			rep.AddMetric("seed", fmt.Sprintf("%d", o.Seed+seed), "")
			rep.Tables = append(rep.Tables, Table{
				Name:   "points",
				Header: []string{"x", "y"},
				Rows:   [][]string{{"1", fmt.Sprintf("%d", seed*2)}},
			})
			return rep, nil
		}}
	}
	exps := []Experiment{mk("r1", 1), mk("r2", 2), mk("r3", 3), mk("r4", 4), mk("r5", 5)}
	opts := Options{Seed: 9, Quick: true}

	run := func(workers int) (string, map[string]string, string) {
		var out, profs bytes.Buffer
		dir := t.TempDir()
		o := opts
		o.Workers = workers
		r := Runner{
			Options: o,
			CSVDir:  dir,
			Collect: func(rep *Report, res obs.ResourceStats) {
				fmt.Fprintf(&profs, "  resources: %s %s\n", rep.ID, res)
			},
		}
		if err := r.Run(context.Background(), exps, &out); err != nil {
			t.Fatal(err)
		}
		return out.String(), readDir(t, dir), profs.String()
	}

	out1, csv1, prof1 := run(1)
	out4, csv4, prof4 := run(4)

	if out1 != out4 {
		t.Errorf("report output differs between worker counts:\n%q\n%q", out1, out4)
	}
	if len(csv1) == 0 || len(csv1) != len(csv4) {
		t.Fatalf("CSV counts differ: %d vs %d", len(csv1), len(csv4))
	}
	for name, want := range csv1 {
		if csv4[name] != want {
			t.Errorf("CSV %s differs between worker counts", name)
		}
	}
	for _, p := range []string{prof1, prof4} {
		lines := strings.Split(strings.TrimSuffix(p, "\n"), "\n")
		if len(lines) != len(exps) {
			t.Fatalf("%d resources lines, want %d:\n%s", len(lines), len(exps), p)
		}
		for i, e := range exps {
			if !strings.HasPrefix(lines[i], "  resources: "+e.ID+" wall=") {
				t.Errorf("resources line %d = %q, want the resources line of %s", i, lines[i], e.ID)
			}
		}
		if !strings.Contains(p, "peak-heap=") {
			t.Errorf("resources line lacks watermarks:\n%s", p)
		}
	}
	if strings.Contains(out1, "resources:") {
		t.Error("resources line leaked into the deterministic report stream")
	}
}
