package obs

import (
	"sort"
	"sync"
	"time"
)

// Sampler records registry metrics into fixed-capacity ring series at
// caller-driven instants: counters as per-tick deltas (name.delta),
// gauges as instantaneous values, and histograms as running quantile
// estimates (name.p50/.p90/.p99). Ad-hoc quantities that live outside
// the registry (a computed sync ratio, a windowed departure count) are
// appended directly with Observe.
//
// The sampler never reads a clock: every Tick and Observe takes the
// sample time from the caller. Simulations drive it from the simnet
// scheduler with virtual time, so two same-seed runs produce
// byte-identical series CSVs — the sampler half of the determinism
// golden test.
//
// The nil sampler discards samples, so wiring can be unconditional.
type Sampler struct {
	mu       sync.Mutex
	reg      *Registry
	capacity int
	last     map[string]int64 // previous counter values, for deltas
	rings    map[string]*seriesRing
	names    []string // sorted ring names
}

// DefaultSeriesCapacity bounds each series ring when NewSampler is given
// a non-positive capacity: at the default 2-minute tick it retains more
// than five simulated days.
const DefaultSeriesCapacity = 4096

// NewSampler creates a sampler over reg (which may be nil: only Observe
// series are recorded then). capacity bounds each series ring;
// non-positive means DefaultSeriesCapacity.
func NewSampler(reg *Registry, capacity int) *Sampler {
	if capacity <= 0 {
		capacity = DefaultSeriesCapacity
	}
	return &Sampler{
		reg:      reg,
		capacity: capacity,
		last:     make(map[string]int64),
		rings:    make(map[string]*seriesRing),
	}
}

// seriesRing is one fixed-capacity ring of points.
type seriesRing struct {
	buf   []Point
	start int
	n     int
}

// push appends a point, evicting the oldest when full.
func (r *seriesRing) push(p Point, capacity int) {
	if len(r.buf) < capacity {
		r.buf = append(r.buf, p)
		r.n++
		return
	}
	r.buf[r.start] = p
	r.start = (r.start + 1) % len(r.buf)
}

// points returns the retained points, oldest first.
func (r *seriesRing) points() []Point {
	out := make([]Point, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}

// ring returns the named ring, creating it on first use. Callers hold mu.
func (s *Sampler) ringLocked(name string) *seriesRing {
	r := s.rings[name]
	if r == nil {
		r = &seriesRing{}
		s.rings[name] = r
		s.names = insertSorted(s.names, name)
	}
	return r
}

// Observe appends one point to the named series at the given time.
func (s *Sampler) Observe(now time.Time, name string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ringLocked(name).push(Point{T: now, V: v}, s.capacity)
}

// Tick samples every registry metric at the given instant. Counters
// record the delta since the previous tick (the first tick records the
// delta from zero), gauges their current value, histograms their
// deterministic p50/p90/p99 estimates. Metrics registered after earlier
// ticks simply start their series late.
func (s *Sampler) Tick(now time.Time) {
	if s == nil || s.reg == nil {
		return
	}
	snap := s.reg.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range snap.Counters {
		delta := c.Value - s.last[c.Name]
		s.last[c.Name] = c.Value
		s.ringLocked(c.Name+".delta").push(Point{T: now, V: float64(delta)}, s.capacity)
	}
	for _, g := range snap.Gauges {
		s.ringLocked(g.Name).push(Point{T: now, V: float64(g.Value)}, s.capacity)
	}
	for _, h := range snap.Histograms {
		s.ringLocked(h.Name+".p50").push(Point{T: now, V: float64(h.P50)}, s.capacity)
		s.ringLocked(h.Name+".p90").push(Point{T: now, V: float64(h.P90)}, s.capacity)
		s.ringLocked(h.Name+".p99").push(Point{T: now, V: float64(h.P99)}, s.capacity)
	}
}

// Set returns the recorded series, name-sorted, as plain copied data.
func (s *Sampler) Set() *SeriesSet {
	ss := &SeriesSet{}
	if s == nil {
		return ss
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ss.Series = make([]Series, 0, len(s.names))
	for _, name := range s.names {
		ss.Series = append(ss.Series, Series{Name: name, Points: s.rings[name].points()})
	}
	return ss
}

// MergeSeriesSets concatenates several sets into one name-sorted set,
// joining same-named series by appending points in argument order. The
// result order is a pure function of the inputs, so per-job sets merged
// in registry order stay byte-identical at any worker count.
func MergeSeriesSets(sets ...*SeriesSet) *SeriesSet {
	byName := make(map[string]*Series)
	var names []string
	for _, set := range sets {
		if set == nil {
			continue
		}
		for i := range set.Series {
			in := &set.Series[i]
			s := byName[in.Name]
			if s == nil {
				s = &Series{Name: in.Name}
				byName[in.Name] = s
				names = append(names, in.Name)
			}
			s.Points = append(s.Points, in.Points...)
		}
	}
	sort.Strings(names)
	out := &SeriesSet{Series: make([]Series, 0, len(names))}
	for _, name := range names {
		out.Series = append(out.Series, *byName[name])
	}
	return out
}
