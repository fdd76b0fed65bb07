package estimate

import (
	"math"
	"math/rand/v2"
	"net/netip"
	"testing"
)

// Property suite: both estimators against closed-form populations with
// analytically known answers. Every randomized case prints the (seed,
// config) needed to reproduce a failure.

// popConfig is one closed-form population case for the recurrence
// estimator.
type popConfig struct {
	seed       uint64
	population int // true N
	sources    int
	perSource  int // draws announced by each source
	tolerance  float64
}

func TestPopulationEstimateConverges(t *testing.T) {
	// Uniform draws from a fixed N-address pool: the estimate must land
	// within tolerance of N once the draw count passes a few multiples of
	// N, and the final run of checkpoints must be within tolerance too
	// (not just a lucky last sample).
	cases := []popConfig{
		{seed: 1, population: 200, sources: 40, perSource: 50, tolerance: 0.15},
		{seed: 2, population: 1000, sources: 50, perSource: 120, tolerance: 0.10},
		{seed: 3, population: 5000, sources: 80, perSource: 250, tolerance: 0.10},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewPCG(c.seed, 99))
		pool := make([]netip.AddrPort, c.population)
		for i := range pool {
			pool[i] = eAddr(1000 + i)
		}
		e := NewPopulationEstimator()
		for s := 0; s < c.sources; s++ {
			src := eAddr(s)
			for k := 0; k < c.perSource; k++ {
				e.Observe(src, pool[rng.IntN(len(pool))])
			}
		}
		got := e.Estimate()
		rel := RelativeError(got, float64(c.population))
		if rel > c.tolerance {
			t.Errorf("population estimate off: got %.1f, truth %d, rel err %.3f > %.3f\n"+
				"reproduce with %+v", got, c.population, rel, c.tolerance, c)
		}
	}
}

func TestPopulationErrorMonotoneOnDeterministicStream(t *testing.T) {
	// Deterministic cyclic stream: each source announces the whole
	// N-address pool in order. After the first source the estimator has
	// full coverage and every further announcement is a recurrence, so
	// the estimate decreases monotonically toward N from above — error is
	// monotone non-increasing in sample count. This is the strict
	// monotonicity statement (random streams only converge in
	// expectation).
	const n = 120
	const sources = 6
	pool := make([]netip.AddrPort, n)
	for i := range pool {
		pool[i] = eAddr(2000 + i)
	}
	e := NewPopulationEstimator()
	prevErr := math.Inf(1)
	for s := 0; s < sources; s++ {
		src := eAddr(s)
		for k := 0; k < n; k++ {
			e.Observe(src, pool[k])
			if s == 0 {
				continue // no recurrence yet; the fallback regime
			}
			err := RelativeError(e.Estimate(), n)
			if err > prevErr*(1+1e-9)+1e-12 {
				t.Fatalf("error increased at source %d draw %d: %v after %v\n"+
					"reproduce with n=%d sources=%d (deterministic)", s, k, err, prevErr, n, sources)
			}
			prevErr = err
		}
	}
	final := RelativeError(e.Estimate(), n)
	if final > 0.02 {
		t.Errorf("final error %.4f > 0.02 after %d full passes (deterministic n=%d)",
			final, sources, n)
	}
}

// degConfig is one closed-form case for the degree estimator.
type degConfig struct {
	seed      uint64
	degree    int // true distinct-address degree
	pct, cap  int
	exchanges int
}

func TestDegreeErrorMonotoneAndConverges(t *testing.T) {
	// The combined degree estimate is max(distinct, first·100/pct) — two
	// lower bounds, one of which is monotone non-decreasing — so its
	// error is monotone non-increasing in the exchange count on ANY
	// stream the popsim-style server produces (pages never exceed pct%),
	// and it must reach the exact degree once the book demonstrably
	// repeats.
	cases := []degConfig{
		{seed: 10, degree: 400, pct: 23, cap: 1000, exchanges: 30},
		{seed: 11, degree: 50, pct: 23, cap: 1000, exchanges: 40},
		{seed: 12, degree: 5000, pct: 23, cap: 1000, exchanges: 60},
		{seed: 13, degree: 9000, pct: 23, cap: 500, exchanges: 80}, // cap-limited pages
	}
	for _, c := range cases {
		rng := rand.New(rand.NewPCG(c.seed, 7))
		book := make([]netip.AddrPort, c.degree)
		for i := range book {
			book[i] = eAddr(10000 + i)
		}
		page := c.degree * c.pct / 100
		if page > c.cap {
			page = c.cap
		}
		if page < 1 {
			page = 1
		}
		e := NewDegreeEstimator(c.pct, c.cap)
		src := eAddr(1)
		prevErr := math.Inf(1)
		for x := 0; x < c.exchanges; x++ {
			// Random pct% sample without replacement per page — the
			// Bitcoin Core response model.
			rng.Shuffle(len(book), func(i, j int) { book[i], book[j] = book[j], book[i] })
			e.ObserveExchange(src, book[:page])
			sd := e.Estimates()[0]
			if sd.Estimate > float64(c.degree)+1e-9 {
				t.Fatalf("estimate %v exceeds truth %d (must be a lower bound)\nreproduce with %+v",
					sd.Estimate, c.degree, c)
			}
			err := RelativeError(sd.Estimate, float64(c.degree))
			if err > prevErr+1e-12 {
				t.Fatalf("error increased at exchange %d: %v after %v\nreproduce with %+v",
					x, err, prevErr, c)
			}
			prevErr = err
		}
		if prevErr > 0.05 {
			t.Errorf("final degree error %.4f > 0.05\nreproduce with %+v", prevErr, c)
		}
	}
}

func TestDegreeExactOnPagedDrain(t *testing.T) {
	// Deterministic paged serving (the popsim session model): fixed pages
	// then a repeat page. The estimate must equal the true degree exactly
	// at drain, for a spread of book sizes including non-divisible ones.
	for _, n := range []int{5, 23, 100, 437, 1000, 2600} {
		book := make([]netip.AddrPort, n)
		for i := range book {
			book[i] = eAddr(20000 + i)
		}
		page := n * 23 / 100
		if page < 1 {
			page = n
		}
		e := NewDegreeEstimator(23, 1000)
		src := eAddr(1)
		for cursor := 0; cursor < n; cursor += page {
			end := cursor + page
			if end > n {
				end = n
			}
			e.ObserveExchange(src, book[cursor:end])
		}
		e.ObserveExchange(src, book[:page]) // repeat page: Algorithm 1 terminator
		sd := e.Estimates()[0]
		if !sd.Drained || sd.Estimate != float64(n) {
			t.Errorf("n=%d: drained=%v estimate=%v, want exact %d", n, sd.Drained, sd.Estimate, n)
		}
	}
}
