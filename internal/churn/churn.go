// Package churn implements the paper's §IV-D churn analyses: the binary
// presence matrix of Algorithm 4 (Figure 12), daily arrival/departure
// counts (Figure 13), persistent-node counting, node lifetime estimation
// (the basis for §V's 17-day eviction proposal), and the
// synchronized-departure rates whose doubling between 2019 and 2020 the
// paper identifies as the dominant cause of the synchronization drop.
package churn

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"repro/internal/netgen"
	"repro/internal/obs"
)

// Matrix is the binary presence matrix M of Algorithm 4: one row per
// unique reachable address, one column per network sample; M[i][j] = 1
// when address i was present in sample j. Rows are stored as packed
// bitsets.
type Matrix struct {
	// Addrs labels the rows.
	Addrs []netip.AddrPort
	// Times labels the columns.
	Times []time.Time
	// Interval is the sampling cadence.
	Interval time.Duration

	rows  [][]uint64
	words int
}

// Build constructs a matrix for the given addresses and sample times;
// present(i, j) reports whether address i is in sample j.
func Build(addrs []netip.AddrPort, times []time.Time, interval time.Duration,
	present func(i, j int) bool) *Matrix {
	m := &Matrix{
		Addrs:    addrs,
		Times:    times,
		Interval: interval,
		words:    (len(times) + 63) / 64,
	}
	m.rows = make([][]uint64, len(addrs))
	for i := range m.rows {
		m.rows[i] = make([]uint64, m.words)
		for j := range times {
			if present(i, j) {
				m.rows[i][j/64] |= 1 << (j % 64)
			}
		}
	}
	return m
}

// FromUniverse samples a synthetic universe's reachable stations at the
// given cadence over its whole horizon. Session lists are walked with a
// cursor, so the cost is O(rows × columns).
func FromUniverse(u *netgen.Universe, interval time.Duration) *Matrix {
	p := u.Params
	var times []time.Time
	for t := p.Epoch; t.Before(u.End()); t = t.Add(interval) {
		times = append(times, t)
	}
	m := &Matrix{
		Times:    times,
		Interval: interval,
		words:    (len(times) + 63) / 64,
	}
	m.Addrs = make([]netip.AddrPort, len(u.Reachable))
	m.rows = make([][]uint64, len(u.Reachable))
	for i, s := range u.Reachable {
		m.Addrs[i] = s.Addr
		row := make([]uint64, m.words)
		cursor := 0
		for j, t := range times {
			for cursor < len(s.Sessions) && !s.Sessions[cursor].End.After(t) {
				cursor++
			}
			if cursor < len(s.Sessions) && s.Sessions[cursor].Contains(t) {
				row[j/64] |= 1 << (j % 64)
			}
		}
		m.rows[i] = row
	}
	return m
}

// Publish exports the matrix's §IV-D summary statistics as gauges into
// reg (churn.* names): row/column dimensions, the persistent-node count,
// the mean lifetime in seconds, and the mean arrival/departure rates per
// sampling interval (scaled ×1000 to fit the integer gauge). A nil
// registry is a no-op.
func (m *Matrix) Publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge("churn.matrix.rows").Set(int64(m.Rows()))
	reg.Gauge("churn.matrix.cols").Set(int64(m.Cols()))
	reg.Gauge("churn.persistent").Set(int64(m.PersistentCount()))
	reg.Gauge("churn.lifetime.mean.seconds").Set(int64(m.MeanLifetime() / time.Second))
	tr := m.Transitions()
	reg.Gauge("churn.departures.mean.x1000").Set(int64(tr.MeanDepartures() * 1000))
	reg.Gauge("churn.arrivals.mean.x1000").Set(int64(tr.MeanArrivals() * 1000))
}

// At reports M[i][j].
func (m *Matrix) At(i, j int) bool {
	return m.rows[i][j/64]&(1<<(j%64)) != 0
}

// Rows returns the number of unique addresses.
func (m *Matrix) Rows() int { return len(m.Addrs) }

// Cols returns the number of samples.
func (m *Matrix) Cols() int { return len(m.Times) }

// RowOnes returns the number of present samples for row i.
func (m *Matrix) RowOnes(i int) int {
	total := 0
	for _, w := range m.rows[i] {
		total += popcount(w)
	}
	return total
}

// popcount counts set bits.
func popcount(x uint64) int {
	count := 0
	for x != 0 {
		x &= x - 1
		count++
	}
	return count
}

// PersistentCount returns the number of rows present in every sample —
// Figure 12's end-to-end horizontal lines (paper: 3,034).
func (m *Matrix) PersistentCount() int {
	if m.Cols() == 0 {
		return 0
	}
	count := 0
	for i := range m.rows {
		if m.RowOnes(i) == m.Cols() {
			count++
		}
	}
	return count
}

// MeanLifetime returns the mean cumulative presence per unique address —
// the paper's "average network lifetime" (measured 16.6 days), which §V
// proposes as the tried-table eviction horizon.
func (m *Matrix) MeanLifetime() time.Duration {
	if m.Rows() == 0 {
		return 0
	}
	// Sum in float64: 30K rows × 60 days of nanoseconds overflows int64.
	var totalIntervals float64
	for i := range m.rows {
		totalIntervals += float64(m.RowOnes(i))
	}
	mean := totalIntervals / float64(m.Rows())
	return time.Duration(mean * float64(m.Interval))
}

// Transitions counts per-column-pair state changes: departures are
// 1→0 transitions between consecutive samples, arrivals 0→1 — the
// Figure 13 observable when the matrix is sampled daily.
type Transitions struct {
	// Times labels each pair (the later sample's time).
	Times []time.Time
	// Departures and Arrivals per pair.
	Departures []int
	Arrivals   []int
}

// Transitions computes arrival/departure counts between consecutive
// samples.
func (m *Matrix) Transitions() *Transitions {
	cols := m.Cols()
	if cols < 2 {
		return &Transitions{}
	}
	tr := &Transitions{
		Times:      make([]time.Time, cols-1),
		Departures: make([]int, cols-1),
		Arrivals:   make([]int, cols-1),
	}
	for j := 1; j < cols; j++ {
		tr.Times[j-1] = m.Times[j]
		prevWord, prevBit := (j-1)/64, uint((j-1)%64)
		curWord, curBit := j/64, uint(j%64)
		for i := range m.rows {
			prev := m.rows[i][prevWord]&(1<<prevBit) != 0
			cur := m.rows[i][curWord]&(1<<curBit) != 0
			switch {
			case prev && !cur:
				tr.Departures[j-1]++
			case !prev && cur:
				tr.Arrivals[j-1]++
			}
		}
	}
	return tr
}

// MeanDepartures returns the average per-pair departure count.
func (t *Transitions) MeanDepartures() float64 {
	if len(t.Departures) == 0 {
		return 0
	}
	sum := 0
	for _, d := range t.Departures {
		sum += d
	}
	return float64(sum) / float64(len(t.Departures))
}

// MeanArrivals returns the average per-pair arrival count.
func (t *Transitions) MeanArrivals() float64 {
	if len(t.Arrivals) == 0 {
		return 0
	}
	sum := 0
	for _, a := range t.Arrivals {
		sum += a
	}
	return float64(sum) / float64(len(t.Arrivals))
}

// SyncedDepartures counts, per sampling interval, reachable stations that
// were synchronized (online past their IBD window) and absent at the next
// sample — the paper's §IV-D metric, measured at 10-minute cadence
// against the Bitnodes feed (3.9/10 min in 2019, 7.6/10 min in 2020).
// It returns the mean count per interval.
func SyncedDepartures(u *netgen.Universe, interval time.Duration) float64 {
	var samples int
	var departures int
	for t := u.Params.Epoch; t.Add(interval).Before(u.End()); t = t.Add(interval) {
		next := t.Add(interval)
		for _, s := range u.Reachable {
			if s.SyncedAt(t) && !s.OnlineAt(next) {
				departures++
			}
		}
		samples++
	}
	if samples == 0 {
		return 0
	}
	return float64(departures) / float64(samples)
}

// Render draws the matrix as ASCII art (rows downsampled to maxRows,
// columns to maxCols), '#' marking presence — a terminal rendering of
// Figure 12.
func (m *Matrix) Render(maxRows, maxCols int) string {
	if m.Rows() == 0 || m.Cols() == 0 {
		return "(empty matrix)"
	}
	if maxRows <= 0 {
		maxRows = 40
	}
	if maxCols <= 0 {
		maxCols = 80
	}
	rowStep := (m.Rows() + maxRows - 1) / maxRows
	colStep := (m.Cols() + maxCols - 1) / maxCols
	var b strings.Builder
	fmt.Fprintf(&b, "presence matrix: %d addresses x %d samples (cell = %dx%d)\n",
		m.Rows(), m.Cols(), rowStep, colStep)
	for i := 0; i < m.Rows(); i += rowStep {
		for j := 0; j < m.Cols(); j += colStep {
			present := false
			for ii := i; ii < i+rowStep && ii < m.Rows() && !present; ii++ {
				for jj := j; jj < j+colStep && jj < m.Cols(); jj++ {
					if m.At(ii, jj) {
						present = true
						break
					}
				}
			}
			if present {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
