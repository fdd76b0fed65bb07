package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// The flight recorder is the crash side of the resource observatory: when
// a run dies by panic or deadline, the in-memory evidence — the tracer
// ring, the metrics snapshot, the resource high-watermarks — would vanish
// with the process. Dump commits it to flightrec-<key>.json with the same
// temp+fsync+rename discipline as the bundle cache, so a reader only ever
// sees a complete record or none, even across a kill -9 mid-dump.

// FlightRecord is everything worth keeping from a run that died. Events
// hold the tracer ring oldest-first (the last-N window before death);
// EventsTotal and EventsDropped say how much history the ring evicted.
type FlightRecord struct {
	// Key identifies the run (a cache key, an experiment ID, …); it also
	// names the artifact file.
	Key string `json:"key"`
	// Time is the wall-clock moment the record was captured.
	Time time.Time `json:"time"`
	// Cause classifies the death: "panic", "deadline", or a caller label.
	Cause string `json:"cause"`
	// Panic is the rendered panic value, empty for non-panic causes.
	Panic string `json:"panic,omitempty"`
	// Stack is the goroutine stack at capture, when one was available.
	Stack string `json:"stack,omitempty"`
	// EventsTotal and EventsDropped are the tracer's lifetime counters:
	// total ever emitted and how many the ring evicted before capture.
	EventsTotal   uint64 `json:"events_total"`
	EventsDropped uint64 `json:"events_dropped"`
	// TraceDigest is the tracer's chained digest over all emitted events.
	TraceDigest string `json:"trace_digest,omitempty"`
	// Events is the retained tracer ring, oldest first.
	Events []Event `json:"events,omitempty"`
	// Snapshot is the metrics registry state at capture.
	Snapshot *Snapshot `json:"snapshot,omitempty"`
	// Resources holds the run's resource accounting (peak heap, CPU,
	// alloc deltas) as measured by the ResourceSampler.
	Resources ResourceStats `json:"resources"`
}

// CaptureFlightRecord assembles a record from the live pieces. Any of
// tracer/snap may be nil; panicValue nil means a non-panic cause; stack
// nil captures the current goroutine's stack for panic causes.
func CaptureFlightRecord(key, cause string, panicValue any, stack []byte, tr *Tracer, snap *Snapshot, res ResourceStats) FlightRecord {
	rec := FlightRecord{
		Key:       key,
		Time:      time.Now().UTC(),
		Cause:     cause,
		Resources: res,
		Snapshot:  snap,
	}
	if panicValue != nil {
		rec.Panic = fmt.Sprint(panicValue)
		if stack == nil {
			buf := make([]byte, 64<<10)
			stack = buf[:runtime.Stack(buf, false)]
		}
	}
	rec.Stack = string(stack)
	if tr != nil {
		rec.Events = tr.Events()
		rec.EventsTotal = tr.Total()
		rec.EventsDropped = tr.Dropped()
		rec.TraceDigest = tr.Digest()
	}
	return rec
}

// FlightRecorder writes FlightRecords into a directory. The nil recorder
// discards dumps, so crash paths call it unconditionally.
type FlightRecorder struct {
	dir string
}

// OpenFlightRecorder prepares dir for flight records, creating it if
// needed and sweeping temp leftovers from dumps that died mid-write.
func OpenFlightRecorder(dir string) (*FlightRecorder, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: flight recorder dir: %w", err)
	}
	if _, err := SweepTempFiles(dir); err != nil {
		return nil, err
	}
	return &FlightRecorder{dir: dir}, nil
}

// Dump commits rec as flightrec-<key>.json and returns the artifact
// path. A zero Time is stamped with the current wall clock. The write is
// atomic and durable; a crash mid-dump leaves only a swept-on-reopen
// temp file, never a torn record.
func (fr *FlightRecorder) Dump(rec FlightRecord) (string, error) {
	if fr == nil {
		return "", nil
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now().UTC()
	}
	data, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		return "", fmt.Errorf("obs: encode flight record %s: %w", rec.Key, err)
	}
	name := FlightRecordName(rec.Key)
	if err := AtomicWriteFile(fr.dir, name, data); err != nil {
		return "", err
	}
	return filepath.Join(fr.dir, name), nil
}

// FlightRecordName maps a run key to its artifact file name, replacing
// anything path-hostile so arbitrary keys (experiment IDs, cache hashes)
// stay confined to one flat directory.
func FlightRecordName(key string) string {
	const maxKey = 120
	b := make([]byte, 0, len(key))
	for i := 0; i < len(key) && i < maxKey; i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	if len(b) == 0 {
		b = append(b, "unknown"...)
	}
	return "flightrec-" + string(b) + ".json"
}

// ReadFlightRecord loads one artifact back.
func ReadFlightRecord(path string) (*FlightRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: read flight record: %w", err)
	}
	var rec FlightRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("obs: decode flight record %s: %w", filepath.Base(path), err)
	}
	return &rec, nil
}
