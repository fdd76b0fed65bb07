package netgen

import (
	"testing"
	"testing/quick"
	"time"
)

// Property-based tests over the generator's structural invariants.

// TestUniverseInvariantsProperty: for arbitrary seeds and scales, every
// generated universe satisfies the structural contract — disjoint address
// spaces, session ordering, visibility windows, persistent coverage.
func TestUniverseInvariantsProperty(t *testing.T) {
	f := func(seed int64, scalePct uint8) bool {
		scale := 0.005 + float64(scalePct%20)/1000 // 0.005 .. 0.024
		u, err := Generate(DefaultParams(seed, scale))
		if err != nil {
			return false
		}
		seen := make(map[string]bool)
		for _, s := range u.Reachable {
			key := s.Addr.String()
			if seen[key] {
				return false // duplicate address
			}
			seen[key] = true
			if s.Class != ClassReachable {
				return false
			}
			for i := 1; i < len(s.Sessions); i++ {
				if s.Sessions[i].Start.Before(s.Sessions[i-1].End) {
					return false // overlapping sessions
				}
			}
			if s.Persistent && len(s.Sessions) != 1 {
				return false
			}
		}
		for _, s := range u.Unreachable {
			key := s.Addr.String()
			if seen[key] {
				return false
			}
			seen[key] = true
			if s.Class != ClassResponsive && s.Class != ClassSilent {
				return false
			}
			if !s.Visible.End.After(s.Visible.Start) {
				return false // empty visibility window
			}
		}
		// ByAddr agrees with the population lists.
		for _, s := range u.Reachable[:min(len(u.Reachable), 20)] {
			if u.ByAddr(s.Addr) != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestOnlineCountStationaryProperty: the online population stays within a
// band around the steady-state target across the horizon (no drift from
// the session process).
func TestOnlineCountStationaryProperty(t *testing.T) {
	u, err := Generate(DefaultParams(44, 0.03))
	if err != nil {
		t.Fatal(err)
	}
	p := u.Params
	steady := p.scaled(SteadyReachable)
	for day := 5; day < 60; day += 10 {
		at := p.Epoch.Add(time.Duration(day) * 24 * time.Hour)
		online := len(u.OnlineReachable(at))
		if online < steady*70/100 || online > steady*130/100 {
			t.Errorf("day %d: online = %d, want within 30%% of %d", day, online, steady)
		}
	}
}
