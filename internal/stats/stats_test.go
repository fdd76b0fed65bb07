package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("Summarize(nil) err = %v, want ErrEmpty", err)
	}
}

func TestSummarizeBasic(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 {
		t.Errorf("N = %d, want 5", s.N)
	}
	if !almostEqual(s.Mean, 3, 1e-12) {
		t.Errorf("Mean = %v, want 3", s.Mean)
	}
	if !almostEqual(s.Median, 3, 1e-12) {
		t.Errorf("Median = %v, want 3", s.Median)
	}
	if !almostEqual(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Errorf("Std = %v, want %v", s.Std, math.Sqrt(2.5))
	}
	if s.Min != 1 || s.Max != 5 {
		t.Errorf("Min/Max = %v/%v, want 1/5", s.Min, s.Max)
	}
}

func TestSummarizeSingleValue(t *testing.T) {
	s, err := Summarize([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if s.Std != 0 {
		t.Errorf("Std of single sample = %v, want 0", s.Std)
	}
	if s.Mean != 7 || s.Median != 7 {
		t.Errorf("Mean/Median = %v/%v, want 7/7", s.Mean, s.Median)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 10},
		{1, 40},
		{0.5, 25},
		{0.25, 17.5},
		{-1, 10},  // clamped
		{1.5, 40}, // clamped
	}
	for _, tc := range tests {
		if got := Quantile(xs, tc.q); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("Quantile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(empty) should be NaN")
	}
}

func TestQuantilesMatchesQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	qs := []float64{0, 0.1, 0.5, 0.9, 0.99, 1}
	got := Quantiles(xs, qs)
	for i, q := range qs {
		want := Quantile(xs, q)
		if !almostEqual(got[i], want, 1e-12) {
			t.Errorf("Quantiles[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestECDF(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	grid := []float64{0, 1, 2.5, 4, 5}
	got := ECDF(xs, grid)
	want := []float64{0, 0.25, 0.5, 1, 1}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("ECDF[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestECDFEmpty(t *testing.T) {
	got := ECDF(nil, []float64{1, 2})
	for i, v := range got {
		if v != 0 {
			t.Errorf("ECDF(empty)[%d] = %v, want 0", i, v)
		}
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64()*5 + 50
	}
	k, err := NewKDE(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	grid := Grid(0, 100, 2001)
	dens := k.Evaluate(grid)
	var integral float64 // trapezoid rule
	for i := 1; i < len(grid); i++ {
		integral += 0.5 * (dens[i] + dens[i-1]) * (grid[i] - grid[i-1])
	}
	if !almostEqual(integral, 1, 0.01) {
		t.Errorf("KDE integral = %v, want ~1", integral)
	}
}

func TestKDEPeakNearMean(t *testing.T) {
	xs := []float64{10, 10.5, 9.5, 10.2, 9.8}
	k, err := NewKDE(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k.At(10) <= k.At(20) {
		t.Error("density at sample mean should exceed density far away")
	}
}

func TestKDEExplicitBandwidth(t *testing.T) {
	k, err := NewKDE([]float64{1, 2, 3}, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if k.bandwidth != 2.5 {
		t.Errorf("bandwidth = %v, want 2.5", k.bandwidth)
	}
}

func TestKDEEmpty(t *testing.T) {
	if _, err := NewKDE(nil, 1); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestKDEDegenerateSample(t *testing.T) {
	// All-identical samples must not produce a zero bandwidth.
	k, err := NewKDE([]float64{5, 5, 5, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k.bandwidth <= 0 {
		t.Errorf("bandwidth = %v, want > 0", k.bandwidth)
	}
	if v := k.At(5); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("At(5) = %v, want finite", v)
	}
}

func TestGrid(t *testing.T) {
	g := Grid(0, 10, 11)
	if len(g) != 11 {
		t.Fatalf("len = %d, want 11", len(g))
	}
	if g[0] != 0 || g[10] != 10 {
		t.Errorf("endpoints = %v, %v; want 0, 10", g[0], g[10])
	}
	if !almostEqual(g[5], 5, 1e-12) {
		t.Errorf("midpoint = %v, want 5", g[5])
	}
	if g := Grid(3, 9, 1); len(g) != 1 || g[0] != 3 {
		t.Errorf("Grid(n=1) = %v, want [3]", g)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		va, vb := Quantile(xs, qa), Quantile(xs, qb)
		s := MustSummarize(xs)
		return va <= vb+1e-9 && va >= s.Min-1e-9 && vb <= s.Max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: ECDF is monotone non-decreasing over a sorted grid and ends at 1.
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				// Clamp to a moderate range; extreme magnitudes make the
				// grid arithmetic itself lossy, which is not what this
				// property is about.
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := MustSummarize(xs)
		grid := Grid(s.Min-1, s.Max+1, 50)
		cdf := ECDF(xs, grid)
		for i := 1; i < len(cdf); i++ {
			if cdf[i] < cdf[i-1] {
				return false
			}
		}
		return cdf[len(cdf)-1] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkKDEEvaluate(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	k, err := NewKDE(xs, 0)
	if err != nil {
		b.Fatal(err)
	}
	grid := Grid(-4, 4, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Evaluate(grid)
	}
}
