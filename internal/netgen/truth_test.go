package netgen

import (
	"net/netip"
	"testing"
	"time"
)

func TestTrueDegreeMatchesBookDistinct(t *testing.T) {
	u, err := Generate(DefaultParams(11, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	at := u.Params.Epoch.Add(10 * 24 * time.Hour)
	online := u.OnlineReachable(at)
	visible := u.VisibleUnreachable(at)
	checked := 0
	for _, s := range u.Reachable {
		if !s.OnlineAt(at) {
			continue
		}
		deg := u.TrueDegreeFrom(s.ID, at, online, visible)
		book := u.AddrBookFrom(s.ID, at, online, visible)
		distinct := make(map[netip.AddrPort]struct{})
		for _, na := range book {
			distinct[na.Addr] = struct{}{}
		}
		if deg != len(distinct) {
			t.Fatalf("TrueDegree = %d, book distinct = %d for %v", deg, len(distinct), s.Addr)
		}
		if deg > len(book) {
			t.Fatalf("TrueDegree %d exceeds book length %d", deg, len(book))
		}
		// Books sample with replacement, so repeats are expected at sim
		// scales: distinct must be a strict undercount somewhere.
		checked++
		if checked >= 25 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no online reachable stations to check")
	}
}

func TestTrueDegreeDeterministic(t *testing.T) {
	// The truth must be a pure function of (Params, t) — two universes
	// from the same params agree station by station.
	a, err := Generate(DefaultParams(13, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultParams(13, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	at := a.Params.Epoch.Add(5 * 24 * time.Hour)
	onA, visA := a.OnlineReachable(at), a.VisibleUnreachable(at)
	onB, visB := b.OnlineReachable(at), b.VisibleUnreachable(at)
	for i, s := range a.Reachable[:10] {
		if got, want := a.TrueDegreeFrom(s.ID, at, onA, visA), b.TrueDegreeFrom(b.Reachable[i].ID, at, onB, visB); got != want {
			t.Fatalf("station %d degree %d != %d across identical universes", i, got, want)
		}
	}
}
