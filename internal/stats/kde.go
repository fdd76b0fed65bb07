package stats

import (
	"math"
)

// KDE is a one-dimensional Gaussian kernel density estimator, the tool used
// to render the paper's Figure 1 (network synchronization density in 2019
// vs 2020).
type KDE struct {
	samples   []float64
	bandwidth float64
}

// NewKDE builds a Gaussian KDE over xs. If bandwidth <= 0, Silverman's
// rule of thumb is used: h = 0.9 * min(std, IQR/1.34) * n^(-1/5).
// It returns ErrEmpty when xs is empty.
func NewKDE(xs []float64, bandwidth float64) (*KDE, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	samples := make([]float64, len(xs))
	copy(samples, xs)
	if bandwidth <= 0 {
		bandwidth = silverman(samples)
	}
	return &KDE{samples: samples, bandwidth: bandwidth}, nil
}

// silverman computes Silverman's rule-of-thumb bandwidth. It guards against
// degenerate (zero-spread) samples by falling back to a small constant.
func silverman(xs []float64) float64 {
	s := MustSummarize(xs)
	qs := Quantiles(xs, []float64{0.25, 0.75})
	iqr := qs[1] - qs[0]
	spread := s.Std
	if iqr > 0 && iqr/1.34 < spread {
		spread = iqr / 1.34
	}
	if spread <= 0 {
		spread = 1e-3
	}
	return 0.9 * spread * math.Pow(float64(s.N), -0.2)
}

// At evaluates the estimated density at x.
func (k *KDE) At(x float64) float64 {
	const invSqrt2Pi = 0.3989422804014327
	var sum float64
	h := k.bandwidth
	for _, s := range k.samples {
		u := (x - s) / h
		sum += invSqrt2Pi * math.Exp(-0.5*u*u)
	}
	return sum / (float64(len(k.samples)) * h)
}

// Evaluate evaluates the density at every point of grid.
func (k *KDE) Evaluate(grid []float64) []float64 {
	out := make([]float64, len(grid))
	for i, g := range grid {
		out[i] = k.At(g)
	}
	return out
}

// Grid returns n evenly spaced points spanning [lo, hi] inclusive.
// For n < 2 it returns a single point at lo.
func Grid(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}
