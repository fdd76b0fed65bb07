package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestNDJSONWriterStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewNDJSONWriter(&buf)
	sink := w.Sink()
	a, b := addrPort(1), addrPort(2)
	sink(&Event{Time: time.Unix(5, 0).UTC(), Kind: KindRelayBlock,
		From: a, To: b, Detail: "abcd", Dur: time.Second, Span: 7, Parent: 3})
	sink(&Event{Time: time.Unix(6, 0).UTC(), Kind: "drop"}) // point event, zero endpoints
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 is not JSON: %v", err)
	}
	if first["kind"] != KindRelayBlock || first["from"] != a.String() ||
		first["detail"] != "abcd" || first["span"] != float64(7) {
		t.Errorf("line 0 = %v", first)
	}
	if first["t_ns"] != float64(5*time.Second) {
		t.Errorf("t_ns = %v", first["t_ns"])
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	// Zero-valued optional fields are omitted to keep point events compact.
	for _, key := range []string{"from", "to", "dur_ns", "span", "parent", "detail"} {
		if _, ok := second[key]; ok {
			t.Errorf("point event serialized zero field %q: %v", key, second)
		}
	}
}

// errWriter fails after n bytes and records whether Close was called.
type errWriter struct {
	n      int
	closed bool
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.n -= len(p); e.n < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func (e *errWriter) Close() error {
	e.closed = true
	return nil
}

func TestNDJSONWriterStickyErrorAndClose(t *testing.T) {
	ew := &errWriter{n: 10}
	w := NewNDJSONWriter(ew)
	sink := w.Sink()
	// Enough events to overflow the bufio buffer and hit the error.
	big := strings.Repeat("x", bufio.NewWriter(nil).Size())
	sink(&Event{Kind: "a", Detail: big})
	sink(&Event{Kind: "b", Detail: big})
	err := w.Close()
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Close error = %v, want disk full", err)
	}
	if !ew.closed {
		t.Error("Close did not close the underlying writer")
	}
}

// TestNDJSONAsTracerStream pins the -trace-out wiring: a sink attached
// with AddStream records every emitted event as one JSON line.
func TestNDJSONAsTracerStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewNDJSONWriter(&buf)
	tr := NewTracer(2, virtualClock()) // smaller than the emit count
	tr.AddStream(w.Sink())
	for i := 0; i < 9; i++ {
		tr.Emit(Event{Kind: "k", From: addrPort(byte(i + 1))})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 9 {
		t.Errorf("trace file has %d lines, want 9 (ring eviction must not drop streamed events)", got)
	}
}
