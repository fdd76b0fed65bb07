package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// metric is one reported number. N is the sample count behind a
// percentile or median (0 for plain counts and ratios).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metrics is a named set of reported numbers.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// span is one timed call the benchmark made into the system: the
// benchmark's own trace record (name, start, end, parent, rep id).
// Spans are kept in memory and written out when a traced child exits.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Rep    int    `json:"rep"`
}

// spanLog records spans. It is safe for the two service_mix clients to
// share; an uncontended mutex costs far less than the calls it brackets.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// start opens a span and returns its index.
func (l *spanLog) start(name string, parent, rep int) int {
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, Start: now, Parent: parent, Rep: rep})
	id := len(l.spans) - 1
	l.mu.Unlock()
	return id
}

// end closes span id and returns its duration.
func (l *spanLog) end(id int) time.Duration {
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans[id].End = now
	d := now - l.spans[id].Start
	l.mu.Unlock()
	return time.Duration(d)
}

// seconds returns the durations of every closed span called name.
func (l *spanLog) seconds(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for i := range l.spans {
		if s := &l.spans[i]; s.Name == name && s.End != 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; it returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs, 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			fields := bytes.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(string(fields[0]), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// resetPeakRSS resets the resident-set high-water mark to the current
// resident set (Linux: writing 5 to /proc/self/clear_refs). Where the
// kernel refuses, the mark keeps rising and a per-rep peak reads as the
// process's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
