package churn

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/netgen"
)

func mkAddr(i int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1}), 8333)
}

func sampleTimes(n int, interval time.Duration) []time.Time {
	epoch := time.Unix(1586000000, 0).UTC()
	out := make([]time.Time, n)
	for i := range out {
		out[i] = epoch.Add(time.Duration(i) * interval)
	}
	return out
}

// buildTest builds a matrix from a pattern: one string per row,
// '1' = present.
func buildTest(t *testing.T, patterns []string) *Matrix {
	t.Helper()
	cols := len(patterns[0])
	addrs := make([]netip.AddrPort, len(patterns))
	for i := range addrs {
		addrs[i] = mkAddr(i)
	}
	times := sampleTimes(cols, 24*time.Hour)
	return Build(addrs, times, 24*time.Hour, func(i, j int) bool {
		return patterns[i][j] == '1'
	})
}

func TestMatrixBasics(t *testing.T) {
	m := buildTest(t, []string{
		"1111",
		"1100",
		"0011",
		"0000",
	})
	if m.Rows() != 4 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 4x4", m.Rows(), m.Cols())
	}
	if !m.At(0, 3) || m.At(3, 0) || !m.At(2, 2) {
		t.Error("At() disagrees with pattern")
	}
	if got := m.RowOnes(1); got != 2 {
		t.Errorf("RowOnes(1) = %d, want 2", got)
	}
}

func TestPersistentCount(t *testing.T) {
	m := buildTest(t, []string{
		"1111",
		"1101",
		"1111",
	})
	if got := m.PersistentCount(); got != 2 {
		t.Errorf("PersistentCount = %d, want 2", got)
	}
}

func TestMeanLifetime(t *testing.T) {
	m := buildTest(t, []string{
		"1111", // 4 days
		"1100", // 2 days
	})
	want := 3 * 24 * time.Hour
	if got := m.MeanLifetime(); got != want {
		t.Errorf("MeanLifetime = %v, want %v", got, want)
	}
}

func TestTransitions(t *testing.T) {
	m := buildTest(t, []string{
		"1100", // departs at j=2
		"0011", // arrives at j=2
		"1011", // departs at j=1, arrives at j=2
		"1111", // stable
	})
	tr := m.Transitions()
	if len(tr.Departures) != 3 {
		t.Fatalf("pairs = %d, want 3", len(tr.Departures))
	}
	// j=0→1: row2 departs? pattern "1011": j0=1, j1=0 → departure.
	if tr.Departures[0] != 1 || tr.Arrivals[0] != 0 {
		t.Errorf("pair 0 = %d dep/%d arr, want 1/0", tr.Departures[0], tr.Arrivals[0])
	}
	// j=1→2: row0 departs (1→0), row1 arrives (0→1), row2 arrives (0→1).
	if tr.Departures[1] != 1 || tr.Arrivals[1] != 2 {
		t.Errorf("pair 1 = %d dep/%d arr, want 1/2", tr.Departures[1], tr.Arrivals[1])
	}
	// j=2→3: stable.
	if tr.Departures[2] != 0 || tr.Arrivals[2] != 0 {
		t.Errorf("pair 2 = %d dep/%d arr, want 0/0", tr.Departures[2], tr.Arrivals[2])
	}
	if got := tr.MeanDepartures(); got < 0.66 || got > 0.67 {
		t.Errorf("MeanDepartures = %v, want 2/3", got)
	}
	if got := tr.MeanArrivals(); got < 0.66 || got > 0.67 {
		t.Errorf("MeanArrivals = %v, want 2/3", got)
	}
}

func TestTransitionsEmptyAndSingle(t *testing.T) {
	m := buildTest(t, []string{"1"})
	tr := m.Transitions()
	if len(tr.Departures) != 0 {
		t.Error("single-column matrix should have no transitions")
	}
	if tr.MeanDepartures() != 0 || tr.MeanArrivals() != 0 {
		t.Error("empty transitions should average to zero")
	}
}

func TestRender(t *testing.T) {
	m := buildTest(t, []string{
		"1111",
		"0000",
	})
	out := m.Render(10, 10)
	if !strings.Contains(out, "#") || !strings.Contains(out, ".") {
		t.Errorf("render missing marks:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Errorf("render lines = %d, want 3:\n%s", len(lines), out)
	}
}

func TestMatrixWideColumns(t *testing.T) {
	// More than 64 columns exercises multi-word rows.
	cols := 130
	addrs := []netip.AddrPort{mkAddr(0)}
	times := sampleTimes(cols, time.Hour)
	m := Build(addrs, times, time.Hour, func(i, j int) bool { return j%3 == 0 })
	want := 0
	for j := 0; j < cols; j++ {
		if j%3 == 0 {
			want++
			if !m.At(0, j) {
				t.Fatalf("At(0,%d) = false, want true", j)
			}
		} else if m.At(0, j) {
			t.Fatalf("At(0,%d) = true, want false", j)
		}
	}
	if got := m.RowOnes(0); got != want {
		t.Errorf("RowOnes = %d, want %d", got, want)
	}
}

func TestFromUniverseAgainstOnlineAt(t *testing.T) {
	p := netgen.DefaultParams(3, 0.01)
	u, err := netgen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	m := FromUniverse(u, 24*time.Hour)
	if m.Rows() != len(u.Reachable) {
		t.Fatalf("rows = %d, want %d", m.Rows(), len(u.Reachable))
	}
	if m.Cols() != 60 {
		t.Fatalf("cols = %d, want 60", m.Cols())
	}
	// Spot-check agreement with Station.OnlineAt.
	for i := 0; i < m.Rows(); i += 7 {
		s := u.Reachable[i]
		for j := 0; j < m.Cols(); j += 11 {
			if m.At(i, j) != s.OnlineAt(m.Times[j]) {
				t.Fatalf("matrix/OnlineAt disagree at row %d col %d", i, j)
			}
		}
	}
}

func TestFromUniversePersistentsAreFullRows(t *testing.T) {
	p := netgen.DefaultParams(4, 0.01)
	u, err := netgen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	m := FromUniverse(u, 24*time.Hour)
	wantPersistent := 0
	for _, s := range u.Reachable {
		if s.Persistent {
			wantPersistent++
		}
	}
	if got := m.PersistentCount(); got < wantPersistent {
		t.Errorf("PersistentCount = %d, want >= %d (persistents must be full rows)",
			got, wantPersistent)
	}
}

func TestSyncedDeparturesRegimeContrast(t *testing.T) {
	// The 2020 regime must show materially more synchronized departures
	// than 2019 — the paper's headline churn finding.
	scale := 0.05
	u20, err := netgen.Generate(netgen.DefaultParams(5, scale))
	if err != nil {
		t.Fatal(err)
	}
	u19, err := netgen.Generate(netgen.Params2019(5, scale))
	if err != nil {
		t.Fatal(err)
	}
	// Hourly cadence keeps the test fast; the ratio is what matters.
	d20 := SyncedDepartures(u20, time.Hour)
	d19 := SyncedDepartures(u19, time.Hour)
	if d20 <= d19 {
		t.Errorf("synced departures 2020 (%.2f) should exceed 2019 (%.2f)", d20, d19)
	}
	if d19 <= 0 {
		t.Error("2019 regime shows zero churn; calibration broken")
	}
	ratio := d20 / d19
	if ratio < 1.3 || ratio > 4.0 {
		t.Errorf("2020/2019 departure ratio = %.2f, want ≈2", ratio)
	}
}

func BenchmarkFromUniverse(b *testing.B) {
	p := netgen.DefaultParams(6, 0.02)
	u, err := netgen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromUniverse(u, 24*time.Hour)
	}
}
