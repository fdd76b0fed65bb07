package estimate

import (
	"math"
	"net/netip"
	"testing"

	"repro/internal/obs"
	"repro/internal/wire"
)

func eAddr(i int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 8333)
}

func TestInvertRecurrenceDegenerate(t *testing.T) {
	cases := []struct {
		d, t, want float64
	}{
		{0, 0, 0},
		{0, 10, 0},
		{-3, 10, 0},
		{10, -1, 0},
		{math.NaN(), 10, 0},
		{10, math.NaN(), 0},
		{math.Inf(1), 10, 0},
		{1, 1, 1},
		{1, 100, 1},
	}
	for _, c := range cases {
		if got := InvertRecurrence(c.d, c.t); got != c.want {
			t.Errorf("InvertRecurrence(%v, %v) = %v, want %v", c.d, c.t, got, c.want)
		}
	}
}

func TestInvertRecurrenceNoRecurrenceFallback(t *testing.T) {
	// All-singletons streams hit the finite Chao-style fallback instead
	// of the divergent MLE.
	got := InvertRecurrence(50, 50)
	want := 50 + 50*49/2.0
	if got != want {
		t.Errorf("fallback = %v, want %v", got, want)
	}
	// d > t is impossible under the model; it must clamp, not blow up.
	if got := InvertRecurrence(100, 50); !isFiniteNonNeg(got) {
		t.Errorf("clamped estimate = %v, want finite non-negative", got)
	}
}

func TestInvertRecurrenceRecoversTruth(t *testing.T) {
	// Feeding the exact expected coverage back through the inversion must
	// recover the population it was computed from.
	for _, n := range []float64{100, 1000, 25000} {
		for _, mult := range []float64{0.5, 1, 2, 5} {
			draws := n * mult
			d := expectedCoverage(n, draws)
			got := InvertRecurrence(d, draws)
			if rel := math.Abs(got-n) / n; rel > 1e-6 {
				t.Errorf("n=%v draws=%v: recovered %v (rel err %v)", n, draws, got, rel)
			}
		}
	}
}

func TestPopulationEstimatorDedup(t *testing.T) {
	e := NewPopulationEstimator()
	s1, s2 := eAddr(1), eAddr(2)
	a := eAddr(100)
	if !e.Observe(s1, a) {
		t.Error("first observation not counted")
	}
	if e.Observe(s1, a) {
		t.Error("per-source duplicate counted")
	}
	if !e.Observe(s2, a) {
		t.Error("same address from a second source must count (a fresh draw)")
	}
	if e.Observe(s1, s1) {
		t.Error("self-referential announcement counted")
	}
	if e.distinct != 1 || e.Total() != 2 {
		t.Errorf("distinct/total = %d/%d, want 1/2", e.distinct, e.Total())
	}
}

func TestPopulationEstimatorEmpty(t *testing.T) {
	e := NewPopulationEstimator()
	if got := e.Estimate(); got != 0 {
		t.Errorf("empty estimate = %v, want 0", got)
	}
}

func TestDegreeEstimatorDrainedExact(t *testing.T) {
	// A 20-address book paged 4 at a time (20% ≤ the 23% contract): the
	// ratio probe dominates early, enumeration takes over, and the
	// estimate is exact at the repeat page that terminates Algorithm 1.
	e := NewDegreeEstimator(23, 1000)
	src := eAddr(1)
	book := make([]netip.AddrPort, 20)
	for i := range book {
		book[i] = eAddr(10 + i)
	}
	e.ObserveExchange(src, book[0:4])
	if len(e.Estimates()) != 1 {
		t.Fatal("source not found")
	}
	sd := e.Estimates()[0]
	if sd.Drained {
		t.Error("drained before any repeat")
	}
	// First response of 4 at 23% certifies ≈17.4 addresses, above the 4
	// enumerated so far.
	if want := 4 * 100.0 / 23; sd.Ratio != want || sd.Estimate != want {
		t.Errorf("ratio/estimate = %v/%v, want %v", sd.Ratio, sd.Estimate, want)
	}
	for cursor := 4; cursor < 20; cursor += 4 {
		e.ObserveExchange(src, book[cursor:cursor+4])
	}
	e.ObserveExchange(src, book[0:4]) // repeat page: Algorithm 1 terminator
	sd = e.Estimates()[0]
	if !sd.Drained || sd.Estimate != 20 || sd.Distinct != 20 {
		t.Errorf("after drain: %+v, want drained exact 20", sd)
	}
	if sd.Exchanges != 6 {
		t.Errorf("exchanges = %d, want 6", sd.Exchanges)
	}
}

func TestDegreeEstimatorZeroLengthIgnored(t *testing.T) {
	e := NewDegreeEstimator(0, 0) // defaults
	src := eAddr(1)
	if e.ObserveExchange(src, nil) {
		t.Error("zero-length exchange created a source")
	}
	if len(e.Estimates()) != 0 {
		t.Error("source exists after only an empty exchange")
	}
	if est, ratio := e.Mean(); est != 0 || ratio != 0 {
		t.Errorf("empty mean = %v/%v, want 0/0 (zero-observation guard)", est, ratio)
	}
}

func TestDegreeEstimatorCapClamp(t *testing.T) {
	// A response larger than the cap only certifies cap·100/pct.
	e := NewDegreeEstimator(23, 10)
	var page []netip.AddrPort
	for i := 0; i < 50; i++ {
		page = append(page, eAddr(100+i))
	}
	e.ObserveExchange(eAddr(1), page)
	sd := e.Estimates()[0]
	if want := 10 * 100.0 / 23; sd.Ratio != want {
		t.Errorf("over-cap ratio = %v, want %v", sd.Ratio, want)
	}
	// But enumeration still counts all 50 distinct addresses.
	if sd.Estimate != 50 {
		t.Errorf("estimate = %v, want 50 (distinct dominates)", sd.Estimate)
	}
}

func TestDegreeEstimatorDeterministicOrder(t *testing.T) {
	e := NewDegreeEstimator(23, 1000)
	order := []netip.AddrPort{eAddr(3), eAddr(1), eAddr(2)}
	for _, src := range order {
		e.ObserveExchange(src, []netip.AddrPort{eAddr(100)})
	}
	ests := e.Estimates()
	if len(ests) != 3 {
		t.Fatalf("sources = %d, want 3", len(ests))
	}
	for i, sd := range ests {
		if sd.Source != order[i] {
			t.Errorf("Estimates()[%d] = %v, want first-observation order %v", i, sd.Source, order[i])
		}
	}
}

func TestCollector(t *testing.T) {
	reg := obs.NewRegistry()
	reach := eAddr(1)
	c := NewCollector(Config{
		IsReachable: func(a netip.AddrPort) bool { return a == reach },
		Metrics:     reg,
	})
	src := eAddr(2)
	c.Exchange(src, []wire.NetAddress{
		{Addr: reach}, // filtered from the population sample
		{Addr: eAddr(100)},
		{Addr: eAddr(101)},
	})
	if c.Pop.Total() != 2 {
		t.Errorf("population draws = %d, want 2 (reachable filtered)", c.Pop.Total())
	}
	if n := len(c.Deg.Estimates()); n != 1 {
		t.Fatalf("degree sources = %d, want 1", n)
	}
	sd := c.Deg.Estimates()[0]
	if sd.Distinct != 3 {
		t.Errorf("degree distinct = %d, want 3 (reachable NOT filtered)", sd.Distinct)
	}
	snap := reg.Snapshot()
	counters := map[string]int64{}
	for _, m := range snap.Counters {
		counters[m.Name] = m.Value
	}
	want := map[string]int64{
		"est.exchanges":                 1,
		"est.announcements":             3,
		"est.announcements.unreachable": 2,
		"est.sources":                   1,
	}
	for name, v := range want {
		if counters[name] != v {
			t.Errorf("%s = %d, want %d", name, counters[name], v)
		}
	}
	if got := c.PopulationEstimate(); !isFiniteNonNeg(got) {
		t.Errorf("population estimate = %v", got)
	}
	if est, ratio := c.MeanDegree(); !isFiniteNonNeg(est) || !isFiniteNonNeg(ratio) {
		t.Errorf("mean degree = %v/%v", est, ratio)
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(5, 0); got != 0 {
		t.Errorf("zero-truth relative error = %v, want 0 (guard)", got)
	}
	if got := RelativeError(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelativeError(110, 100) = %v, want 0.1", got)
	}
	if got := RelativeError(90, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelativeError(90, 100) = %v, want 0.1", got)
	}
}

func isFiniteNonNeg(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}
