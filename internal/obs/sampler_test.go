package obs

import (
	"testing"
	"time"
)

// sampleAt is a fixed virtual instant generator: t0 + n*step.
func sampleAt(n int) time.Time {
	return time.Unix(1585958400, 0).UTC().Add(time.Duration(n) * 2 * time.Minute)
}

func TestSamplerCounterDeltas(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("dial.attempt")
	s := NewSampler(reg, 0)

	c.Add(3)
	s.Tick(sampleAt(0))
	c.Add(5)
	s.Tick(sampleAt(1))
	s.Tick(sampleAt(2)) // no change: delta 0

	set := s.Set()
	sr, ok := set.Get("dial.attempt.delta")
	if !ok {
		t.Fatal("counter delta series missing")
	}
	want := []float64{3, 5, 0}
	if len(sr.Points) != len(want) {
		t.Fatalf("points = %d, want %d", len(sr.Points), len(want))
	}
	for i, p := range sr.Points {
		if p.V != want[i] {
			t.Errorf("delta[%d] = %v, want %v", i, p.V, want[i])
		}
		if !p.T.Equal(sampleAt(i)) {
			t.Errorf("time[%d] = %v, want %v", i, p.T, sampleAt(i))
		}
	}
}

func TestSamplerGaugeAndHistogram(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("sched.depth")
	h := reg.Histogram("relay.delay")
	s := NewSampler(reg, 0)

	g.Set(7)
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * int64(time.Millisecond))
	}
	s.Tick(sampleAt(0))
	g.Set(2)
	s.Tick(sampleAt(1))

	set := s.Set()
	if sr, ok := set.Get("sched.depth"); !ok || sr.Points[0].V != 7 || sr.Points[1].V != 2 {
		t.Errorf("gauge series wrong: %+v", sr)
	}
	for _, name := range []string{"relay.delay.p50", "relay.delay.p90", "relay.delay.p99"} {
		sr, ok := set.Get(name)
		if !ok || len(sr.Points) != 2 {
			t.Fatalf("histogram series %s missing or short", name)
		}
		if sr.Points[0].V <= 0 {
			t.Errorf("%s sampled %v, want > 0", name, sr.Points[0].V)
		}
	}
	p50, _ := set.Get("relay.delay.p50")
	p99, _ := set.Get("relay.delay.p99")
	if p50.Points[0].V > p99.Points[0].V {
		t.Errorf("p50 %v above p99 %v", p50.Points[0].V, p99.Points[0].V)
	}
}

// TestSamplerDeterministic pins the sampler half of the determinism
// story: identically-driven registries sampled at identical virtual
// instants encode to byte-identical CSV.
func TestSamplerDeterministic(t *testing.T) {
	run := func() string {
		reg := NewRegistry()
		c := reg.Counter("a")
		g := reg.Gauge("b")
		h := reg.Histogram("c")
		s := NewSampler(reg, 0)
		for i := 0; i < 20; i++ {
			c.Add(int64(i))
			g.Set(int64(i * i))
			h.Observe(int64(i+1) * int64(time.Millisecond))
			s.Tick(sampleAt(i))
			s.Observe(sampleAt(i), "adhoc.ratio", float64(i)/7)
		}
		csv, err := s.Set().EncodeCSV()
		if err != nil {
			t.Fatal(err)
		}
		return csv
	}
	a, b := run(), run()
	if a == "" || a != b {
		t.Fatalf("same drive produced different CSVs:\n%s\nvs\n%s", a, b)
	}
}

func TestSamplerRingEviction(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("depth")
	s := NewSampler(reg, 4)
	for i := 0; i < 10; i++ {
		g.Set(int64(i))
		s.Tick(sampleAt(i))
	}
	sr, ok := s.Set().Get("depth")
	if !ok || len(sr.Points) != 4 {
		t.Fatalf("retained %d points, want 4", len(sr.Points))
	}
	for i, p := range sr.Points {
		if want := float64(6 + i); p.V != want {
			t.Errorf("ring[%d] = %v, want %v (oldest-first)", i, p.V, want)
		}
	}
}

func TestSamplerNilSafety(t *testing.T) {
	var s *Sampler
	s.Tick(sampleAt(0))
	s.Observe(sampleAt(0), "x", 1)
	if set := s.Set(); set.Len() != 0 {
		t.Errorf("nil sampler recorded %d points", set.Len())
	}

	// A sampler without a registry records Observe series only.
	s2 := NewSampler(nil, 0)
	s2.Tick(sampleAt(0))
	s2.Observe(sampleAt(0), "only", 42)
	if set := s2.Set(); set.Len() != 1 {
		t.Errorf("registry-less sampler recorded %d points, want 1", set.Len())
	}
}

func TestSamplerSetNameSorted(t *testing.T) {
	s := NewSampler(nil, 0)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		s.Observe(sampleAt(0), name, 1)
	}
	set := s.Set()
	for i := 1; i < len(set.Series); i++ {
		if set.Series[i-1].Name >= set.Series[i].Name {
			t.Fatalf("series not name-sorted: %q before %q",
				set.Series[i-1].Name, set.Series[i].Name)
		}
	}
}

func TestMergeSeriesSets(t *testing.T) {
	a := &SeriesSet{Series: []Series{
		{Name: "x", Points: []Point{{T: sampleAt(0), V: 1}}},
		{Name: "z", Points: []Point{{T: sampleAt(0), V: 9}}},
	}}
	b := &SeriesSet{Series: []Series{
		{Name: "x", Points: []Point{{T: sampleAt(1), V: 2}}},
		{Name: "a", Points: []Point{{T: sampleAt(0), V: 5}}},
	}}
	m := MergeSeriesSets(a, nil, b)
	if len(m.Series) != 3 {
		t.Fatalf("merged series = %d, want 3", len(m.Series))
	}
	if m.Series[0].Name != "a" || m.Series[1].Name != "x" || m.Series[2].Name != "z" {
		t.Fatalf("merged order: %q %q %q", m.Series[0].Name, m.Series[1].Name, m.Series[2].Name)
	}
	x, _ := m.Get("x")
	if len(x.Points) != 2 || x.Points[0].V != 1 || x.Points[1].V != 2 {
		t.Errorf("same-name series not joined in argument order: %+v", x.Points)
	}
}
