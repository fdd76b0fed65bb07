package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// NDJSONWriter streams trace events as newline-delimited JSON, one
// object per event — the -trace-out surface. It buffers internally and
// is safe for concurrent sinks (parallel replications share one file),
// so the output is a valid NDJSON stream whatever the interleaving; the
// event order across concurrent runs is wall-clock racing and therefore
// not deterministic, unlike the per-run digests.
type NDJSONWriter struct {
	mu        sync.Mutex
	bw        *bufio.Writer
	c         io.Closer
	fl        flusher
	autoFlush bool
	err       error
}

// flusher matches http.Flusher (and http.ResponseWriter) without
// importing net/http: a Flush with no results. *bufio.Writer's
// error-returning Flush deliberately does not match.
type flusher interface{ Flush() }

// eventJSON is the serialized event shape. Span identifiers are emitted
// only when present, keeping point events compact.
type eventJSON struct {
	TimeNS int64  `json:"t_ns"`
	Kind   string `json:"kind"`
	From   string `json:"from,omitempty"`
	To     string `json:"to,omitempty"`
	Detail string `json:"detail,omitempty"`
	DurNS  int64  `json:"dur_ns,omitempty"`
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
}

// NewNDJSONWriter wraps w. If w is also an io.Closer, Close closes it
// after flushing.
func NewNDJSONWriter(w io.Writer) *NDJSONWriter {
	n := &NDJSONWriter{bw: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		n.c = c
	}
	if f, ok := w.(flusher); ok {
		n.fl = f
	}
	return n
}

// AutoFlush switches the writer into live-streaming mode: every event
// is flushed through the internal buffer — and, when the underlying
// writer is an http.Flusher (a streaming HTTP response), through that
// too — as soon as it is written. File sinks keep the default batched
// mode; the reprod progress stream turns this on so clients see each
// event the moment it happens.
func (n *NDJSONWriter) AutoFlush(on bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.autoFlush = on
}

// Sink returns a tracer stream callback writing each event as one JSON
// line. Errors are sticky and reported by Close.
func (n *NDJSONWriter) Sink() func(*Event) {
	return func(ev *Event) {
		var from, to string
		if ev.From.IsValid() {
			from = ev.From.String()
		}
		if ev.To.IsValid() {
			to = ev.To.String()
		}
		line, err := json.Marshal(eventJSON{
			TimeNS: ev.Time.UnixNano(),
			Kind:   ev.Kind,
			From:   from,
			To:     to,
			Detail: ev.DetailString(),
			DurNS:  int64(ev.Dur),
			Span:   ev.Span,
			Parent: ev.Parent,
		})
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.err != nil {
			return
		}
		if err != nil {
			n.err = err
			return
		}
		if _, err := n.bw.Write(line); err != nil {
			n.err = err
			return
		}
		if err := n.bw.WriteByte('\n'); err != nil {
			n.err = err
			return
		}
		if n.autoFlush {
			if err := n.bw.Flush(); err != nil {
				n.err = err
				return
			}
			if n.fl != nil {
				n.fl.Flush()
			}
		}
	}
}

// Close flushes the buffer, closes the underlying writer when it is a
// Closer, and returns the first error encountered anywhere in the
// stream.
func (n *NDJSONWriter) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.bw.Flush(); err != nil && n.err == nil {
		n.err = err
	}
	if n.c != nil {
		if err := n.c.Close(); err != nil && n.err == nil {
			n.err = err
		}
	}
	return n.err
}
