package obs

import (
	"encoding/json"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testTracer(t *testing.T, capacity, emit int) *Tracer {
	t.Helper()
	base := time.Unix(0, 0).UTC()
	i := 0
	tr := NewTracer(capacity, func() time.Time {
		i++
		return base.Add(time.Duration(i) * time.Millisecond)
	})
	from := netip.MustParseAddrPort("10.0.0.1:8333")
	to := netip.MustParseAddrPort("10.0.0.2:8333")
	for n := 0; n < emit; n++ {
		tr.Emit(Event{Kind: "relay.block", From: from, To: to, Detail: string(rune('a' + n%26))})
	}
	return tr
}

func TestFlightRecorderDumpAndRead(t *testing.T) {
	dir := t.TempDir()
	fr, err := OpenFlightRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := testTracer(t, 8, 12) // ring smaller than emitted: 4 evicted
	reg := NewRegistry()
	reg.Counter("x.count").Add(5)
	rec := CaptureFlightRecord("fig_interv", "panic", "boom: index out of range", nil, tr, reg.Snapshot(), ResourceStats{PeakHeapBytes: 123456, PeakGoroutines: 9})
	path, err := fr.Dump(rec)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "flightrec-fig_interv.json" {
		t.Fatalf("unexpected artifact name %s", path)
	}

	got, err := ReadFlightRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cause != "panic" || got.Panic == "" || got.Stack == "" {
		t.Fatalf("panic metadata incomplete: cause=%q panic=%q stackLen=%d", got.Cause, got.Panic, len(got.Stack))
	}
	if got.EventsTotal != 12 || got.EventsDropped != 4 {
		t.Fatalf("event accounting: total=%d dropped=%d, want 12/4", got.EventsTotal, got.EventsDropped)
	}
	if len(got.Events) != 8 {
		t.Fatalf("retained %d events, want 8", len(got.Events))
	}
	// Ring must round-trip in emit order: times strictly increase.
	for i := 1; i < len(got.Events); i++ {
		if !got.Events[i].Time.After(got.Events[i-1].Time) {
			t.Fatalf("events out of emit order at %d: %v !> %v", i, got.Events[i].Time, got.Events[i-1].Time)
		}
	}
	if got.Events[0].From.String() != "10.0.0.1:8333" {
		t.Fatalf("endpoint did not round-trip: %v", got.Events[0].From)
	}
	if got.TraceDigest != tr.Digest() {
		t.Fatalf("digest mismatch: %q vs %q", got.TraceDigest, tr.Digest())
	}
	if got.Snapshot == nil || len(got.Snapshot.Counters) == 0 || got.Snapshot.Counters[0].Value != 5 {
		t.Fatalf("snapshot did not round-trip: %+v", got.Snapshot)
	}
	if got.Resources.PeakHeapBytes != 123456 {
		t.Fatalf("resources did not round-trip: %+v", got.Resources)
	}
}

func TestFlightRecordIsValidJSON(t *testing.T) {
	dir := t.TempDir()
	fr, _ := OpenFlightRecorder(dir)
	path, err := fr.Dump(CaptureFlightRecord("k", "deadline", nil, nil, testTracer(t, 4, 2), nil, ResourceStats{}))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var any map[string]json.RawMessage
	if err := json.Unmarshal(raw, &any); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if _, ok := any["resources"]; !ok {
		t.Fatal("artifact missing resources field")
	}
	for _, absent := range []string{"panic", "stack"} {
		if _, ok := any[absent]; ok {
			t.Errorf("non-panic record should omit %q", absent)
		}
	}
}

func TestOpenFlightRecorderSweepsTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	// Simulate a dump killed mid-write: a temp file exists, no final file.
	torn := filepath.Join(dir, AtomicTempPrefix+"flightrec-dead.json-123")
	if err := os.WriteFile(torn, []byte(`{"key":"dead","trunc`), 0o644); err != nil {
		t.Fatal(err)
	}
	fr, err := OpenFlightRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatal("temp leftover survived reopen")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("directory not clean after sweep: %v", entries)
	}
	// Recorder still works after the sweep.
	if _, err := fr.Dump(FlightRecord{Key: "alive", Cause: "panic"}); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicWriteFileOverwrite(t *testing.T) {
	dir := t.TempDir()
	if err := AtomicWriteFile(dir, "f.json", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(dir, "f.json", []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "f.json"))
	if err != nil || string(got) != "two" {
		t.Fatalf("got %q, %v; want two", got, err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestSweepTempFilesCountsOnlyTemps(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, AtomicTempPrefix+"a"), nil, 0o644)
	os.WriteFile(filepath.Join(dir, AtomicTempPrefix+"b"), nil, 0o644)
	os.WriteFile(filepath.Join(dir, "keep.json"), []byte("{}"), 0o644)
	n, err := SweepTempFiles(dir)
	if err != nil || n != 2 {
		t.Fatalf("swept %d, %v; want 2", n, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "keep.json")); err != nil {
		t.Fatal("sweep removed a committed file")
	}
}

func TestFlightRecordName(t *testing.T) {
	cases := map[string]string{
		"fig_interv":       "flightrec-fig_interv.json",
		"../../etc/passwd": "flightrec-.._.._etc_passwd.json",
		"a b/c":            "flightrec-a_b_c.json",
		"":                 "flightrec-unknown.json",
	}
	for in, want := range cases {
		if got := FlightRecordName(in); got != want {
			t.Errorf("FlightRecordName(%q) = %q, want %q", in, got, want)
		}
	}
	long := strings.Repeat("x", 300)
	if got := FlightRecordName(long); len(got) > 140 {
		t.Errorf("long key not truncated: %d chars", len(got))
	}
}

func TestNilFlightRecorder(t *testing.T) {
	var fr *FlightRecorder
	if path, err := fr.Dump(FlightRecord{Key: "k"}); err != nil || path != "" {
		t.Fatalf("nil recorder: %q, %v", path, err)
	}
}
