// Package stats provides the statistical primitives used by the
// root-cause analyses: summary statistics, histograms, empirical CDFs,
// quantiles, and Gaussian kernel density estimation.
//
// The package is dependency-free and operates on plain float64 slices.
// All functions treat their inputs as read-only and never retain them.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Summary holds the basic descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	Std    float64
	Min    float64
	Max    float64
	Sum    float64
}

// String renders the summary in a compact single-line form.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f median=%.4f std=%.4f min=%.4f max=%.4f",
		s.N, s.Mean, s.Median, s.Std, s.Min, s.Max)
}

// Summarize computes descriptive statistics for xs.
// It returns ErrEmpty if xs has no elements.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{
		N:   len(xs),
		Min: xs[0],
		Max: xs[0],
	}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	s.Median = Quantile(xs, 0.5)
	return s, nil
}

// MustSummarize is Summarize but panics on an empty sample. It is intended
// for analysis code paths where the sample is known to be non-empty.
func MustSummarize(xs []float64) Summary {
	s, err := Summarize(xs)
	if err != nil {
		panic(err)
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. It returns NaN for an empty sample
// and clamps q into [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Quantiles computes multiple quantiles in one pass over a single sorted
// copy of xs. The result has the same length as qs.
func Quantiles(xs []float64, qs []float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

// ECDF returns the empirical CDF of xs evaluated at each point of grid.
// The grid does not need to be sorted.
func ECDF(xs, grid []float64) []float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]float64, len(grid))
	if len(sorted) == 0 {
		return out
	}
	for i, g := range grid {
		// Number of samples <= g.
		k := sort.SearchFloat64s(sorted, math.Nextafter(g, math.Inf(1)))
		out[i] = float64(k) / float64(len(sorted))
	}
	return out
}
