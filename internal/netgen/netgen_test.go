package netgen

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/wire"
)

// testParams returns a small-scale 2020 calibration for fast tests.
func testParams() Params {
	return DefaultParams(1, 0.02)
}

func generate(t *testing.T, p Params) *Universe {
	t.Helper()
	u, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestGenerateRejectsBadParams(t *testing.T) {
	p := testParams()
	p.Scale = 0
	if _, err := Generate(p); err == nil {
		t.Error("zero scale: want error")
	}
	p = testParams()
	p.Horizon = 0
	if _, err := Generate(p); err == nil {
		t.Error("zero horizon: want error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := generate(t, testParams())
	b := generate(t, testParams())
	if len(a.Reachable) != len(b.Reachable) || len(a.Unreachable) != len(b.Unreachable) {
		t.Fatal("same seed produced different population sizes")
	}
	for i := range a.Reachable {
		if a.Reachable[i].Addr != b.Reachable[i].Addr {
			t.Fatal("same seed produced different addresses")
		}
	}
}

func TestPopulationSizes(t *testing.T) {
	p := testParams()
	u := generate(t, p)
	// Unique reachable ≈ persistent + recurring pool + ephemeral stock +
	// fresh arrivals (the generator's steady-state accounting).
	steady := p.scaled(p.SteadyReachable)
	persistent := p.scaled(p.PersistentReachable)
	duty := float64(p.MeanSessionOn) / float64(p.MeanSessionOn+p.MeanSessionOff)
	ephemSteady := p.scaledF(p.FreshPerDay) * p.EphemeralLifetime.Hours() / 24
	pool := int((float64(steady-persistent) - ephemSteady) / duty)
	expReachable := persistent + pool + int(ephemSteady) +
		int(p.scaledF(p.FreshPerDay)*60)
	got := len(u.Reachable)
	if got < expReachable*9/10 || got > expReachable*11/10 {
		t.Errorf("reachable population = %d, want ≈%d", got, expReachable)
	}
	expUnreachable := p.scaled(p.InitialUnreachable) + int(p.scaledF(p.UnreachablePerDay)*60)
	gotU := len(u.Unreachable)
	if gotU < expUnreachable*9/10 || gotU > expUnreachable*11/10 {
		t.Errorf("unreachable population = %d, want ≈%d", gotU, expUnreachable)
	}
}

func TestSteadyOnlineCount(t *testing.T) {
	p := testParams()
	u := generate(t, p)
	steady := p.scaled(p.SteadyReachable)
	// Sample mid-horizon: the online count should be near steady state.
	mid := p.Epoch.Add(30 * 24 * time.Hour)
	online := len(u.OnlineReachable(mid))
	if online < steady*75/100 || online > steady*125/100 {
		t.Errorf("online at mid-horizon = %d, want ≈%d", online, steady)
	}
}

func TestPersistentAlwaysOnline(t *testing.T) {
	p := testParams()
	u := generate(t, p)
	count := 0
	for _, s := range u.Reachable {
		if !s.Persistent {
			continue
		}
		count++
		for d := 0; d < 60; d += 7 {
			at := p.Epoch.Add(time.Duration(d) * 24 * time.Hour)
			if !s.OnlineAt(at) {
				t.Fatalf("persistent station %v offline at day %d", s.Addr, d)
			}
		}
	}
	if count != p.scaled(p.PersistentReachable) {
		t.Errorf("persistent count = %d, want %d", count, p.scaled(p.PersistentReachable))
	}
}

func TestSessionsAreOrderedAndDisjoint(t *testing.T) {
	u := generate(t, testParams())
	for _, s := range u.Reachable {
		for i := 1; i < len(s.Sessions); i++ {
			if s.Sessions[i].Start.Before(s.Sessions[i-1].End) {
				t.Fatalf("station %v sessions overlap or are unordered", s.Addr)
			}
		}
		for _, iv := range s.Sessions {
			if !iv.End.After(iv.Start) {
				t.Fatalf("station %v has empty session", s.Addr)
			}
		}
	}
}

func TestFreshStationsAppearLate(t *testing.T) {
	p := testParams()
	u := generate(t, p)
	for _, s := range u.Reachable {
		if s.Fresh && len(s.Sessions) > 0 {
			if s.Sessions[0].Start.Before(p.Epoch) {
				t.Fatalf("fresh station %v starts before epoch", s.Addr)
			}
		}
	}
}

func TestResponsiveFraction(t *testing.T) {
	p := testParams()
	u := generate(t, p)
	resp := 0
	for _, s := range u.Unreachable {
		if s.Class == ClassResponsive {
			resp++
		}
	}
	frac := float64(resp) / float64(len(u.Unreachable))
	if frac < 0.20 || frac > 0.28 {
		t.Errorf("responsive fraction = %.3f, want ≈0.235", frac)
	}
}

func TestUnreachableVisibilityWindows(t *testing.T) {
	p := testParams()
	u := generate(t, p)
	mid := p.Epoch.Add(30 * 24 * time.Hour)
	visible := u.VisibleUnreachable(mid)
	// Steady visible should be near the initial stock (arrivals balance
	// expiries by calibration).
	want := p.scaled(p.InitialUnreachable)
	if len(visible) < want*70/100 || len(visible) > want*140/100 {
		t.Errorf("visible unreachable at mid = %d, want ≈%d", len(visible), want)
	}
	for _, s := range visible {
		if !s.VisibleAt(mid) {
			t.Fatal("VisibleUnreachable returned an invisible station")
		}
	}
}

func TestMaliciousAssignment(t *testing.T) {
	p := testParams()
	p.Scale = 0.2 // enough stations for the full malicious cast
	u := generate(t, p)
	var malicious []*Station
	in3320 := 0
	for _, s := range u.Reachable {
		if s.Malicious {
			malicious = append(malicious, s)
			if s.ASN == 3320 {
				in3320++
			}
			if s.FloodBudget < 1 {
				t.Error("malicious station with empty flood budget")
			}
			if !s.Persistent {
				t.Error("malicious station not persistent")
			}
		}
	}
	want := p.scaled(p.MaliciousCount)
	if len(malicious) != want {
		t.Errorf("malicious count = %d, want %d", len(malicious), want)
	}
	if in3320 < p.scaled(p.MaliciousInAS3320)*7/10 {
		t.Errorf("malicious in AS3320 = %d, want ≈%d", in3320, p.scaled(p.MaliciousInAS3320))
	}
}

func TestAddrBookComposition(t *testing.T) {
	p := testParams()
	u := generate(t, p)
	mid := p.Epoch.Add(20 * 24 * time.Hour)
	online := u.OnlineReachable(mid)
	visible := u.VisibleUnreachable(mid)
	reach, unreach := 0, 0
	for _, s := range online[:10] {
		book := u.AddrBookFrom(s, mid, online, visible)
		if len(book) == 0 {
			t.Fatal("empty book from honest station")
		}
		if book[0].Addr != s.Addr {
			t.Error("honest book must lead with self-advertisement")
		}
		for _, na := range book[1:] {
			st := u.ByAddr(na.Addr)
			if st == nil {
				t.Fatalf("book contains unknown address %v", na.Addr)
			}
			if st.Class == ClassReachable {
				reach++
			} else {
				unreach++
			}
		}
	}
	frac := float64(reach) / float64(reach+unreach)
	if frac < 0.10 || frac > 0.20 {
		t.Errorf("reachable share in books = %.3f, want ≈0.149", frac)
	}
}

func TestMaliciousBookUnreachableOnly(t *testing.T) {
	p := testParams()
	p.Scale = 0.2
	u := generate(t, p)
	mid := p.Epoch.Add(10 * 24 * time.Hour)
	online := u.OnlineReachable(mid)
	visible := u.VisibleUnreachable(mid)
	checked := 0
	for _, s := range u.Reachable {
		if !s.Malicious {
			continue
		}
		book := u.AddrBookFrom(s, mid, online, visible)
		for _, na := range book {
			if na.Addr == s.Addr {
				t.Error("malicious book contains self-advertisement")
			}
			st := u.ByAddr(na.Addr)
			if st != nil && st.Class == ClassReachable {
				t.Error("malicious book contains a reachable address")
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no malicious stations found")
	}
}

func TestAddrBookDeterministicPerCrawl(t *testing.T) {
	p := testParams()
	u := generate(t, p)
	mid := p.Epoch.Add(5 * 24 * time.Hour)
	online := u.OnlineReachable(mid)
	visible := u.VisibleUnreachable(mid)
	s := online[0]
	a := u.AddrBookFrom(s, mid, online, visible)
	b := u.AddrBookFrom(s, mid, online, visible)
	if len(a) != len(b) {
		t.Fatal("book not deterministic")
	}
	for i := range a {
		if a[i].Addr != b[i].Addr {
			t.Fatal("book not deterministic")
		}
	}
	// A different crawl day yields a different sample.
	other := u.AddrBookFrom(s, mid.Add(p.CrawlInterval), online, visible)
	same := true
	for i := range a {
		if i >= len(other) || a[i].Addr != other[i].Addr {
			same = false
			break
		}
	}
	if same {
		t.Error("book identical across crawl days; expected resampling")
	}
}

func TestSeedViewStructure(t *testing.T) {
	p := testParams()
	u := generate(t, p)
	mid := p.Epoch.Add(15 * 24 * time.Hour)
	v := u.SeedViewAt(mid)
	if len(v.Bitnodes) == 0 || len(v.DNS) == 0 {
		t.Fatal("empty seed views")
	}
	if v.Common > len(v.Bitnodes) || v.Common > len(v.DNS) {
		t.Error("common exceeds list sizes")
	}
	if v.BitnodesExcluded > len(v.Bitnodes) || v.DNSExcluded > len(v.DNS) {
		t.Error("excluded exceeds list sizes")
	}
	// Dialable excludes critical stations and has no duplicates.
	seen := map[*Station]bool{}
	for _, s := range v.Dialable {
		if s.Critical {
			t.Fatal("critical station in dialable set")
		}
		if seen[s] {
			t.Fatal("duplicate in dialable set")
		}
		seen[s] = true
	}
	// DNS list size target (scaled).
	want := p.scaled(p.DNSListSize)
	if len(v.DNS) < want*8/10 || len(v.DNS) > want*12/10 {
		t.Errorf("DNS list = %d, want ≈%d", len(v.DNS), want)
	}
}

func TestSyncedAtSemantics(t *testing.T) {
	p := testParams()
	u := generate(t, p)
	// A persistent station is synced shortly after epoch + rejoin IBD.
	var persistent *Station
	for _, s := range u.Reachable {
		if s.Persistent {
			persistent = s
			break
		}
	}
	if persistent == nil {
		t.Fatal("no persistent station")
	}
	if persistent.SyncedAt(p.Epoch.Add(time.Minute), p) {
		t.Error("synced during IBD window")
	}
	if !persistent.SyncedAt(p.Epoch.Add(time.Hour), p) {
		t.Error("not synced after IBD window")
	}
	// A fresh station needs the long first-join IBD.
	var fresh *Station
	for _, s := range u.Reachable {
		if s.Fresh && len(s.Sessions) > 0 &&
			s.Sessions[0].Duration() > p.IBDFirstJoin+time.Hour {
			fresh = s
			break
		}
	}
	if fresh != nil {
		start := fresh.Sessions[0].Start
		if fresh.SyncedAt(start.Add(p.IBDRejoin+time.Minute), p) {
			t.Error("fresh station synced before first-join IBD completes")
		}
		if !fresh.SyncedAt(start.Add(p.IBDFirstJoin+time.Minute), p) {
			t.Error("fresh station not synced after first-join IBD")
		}
	}
}

func TestNetAddrTimestampPast(t *testing.T) {
	p := testParams()
	u := generate(t, p)
	mid := p.Epoch.Add(10 * 24 * time.Hour)
	s := u.Reachable[0]
	na := u.NetAddr(s, mid, rand.New(rand.NewPCG(StationSeed(p.Seed, mid, s.ID))))
	if na.Timestamp.After(mid) {
		t.Error("gossip timestamp in the future")
	}
	if mid.Sub(na.Timestamp) > 3*time.Hour {
		t.Error("gossip timestamp too old")
	}
	if na.Services != wire.SFNodeNetwork {
		t.Error("missing service flags")
	}
}

func TestParams2019LowerChurn(t *testing.T) {
	p20 := DefaultParams(1, 1)
	p19 := Params2019(1, 1)
	if p19.MeanSessionOn <= p20.MeanSessionOn {
		t.Error("2019 sessions should be longer than 2020")
	}
	if p19.FlapperFraction >= p20.FlapperFraction {
		t.Error("2019 should have fewer flappers")
	}
}

func TestPortAssignment(t *testing.T) {
	p := testParams()
	u := generate(t, p)
	def := 0
	for _, s := range u.Reachable {
		if s.Addr.Port() == wire.DefaultPort {
			def++
		}
	}
	frac := float64(def) / float64(len(u.Reachable))
	if frac < 0.92 || frac > 0.99 {
		t.Errorf("default-port share (reachable) = %.3f, want ≈0.958", frac)
	}
	defU := 0
	for _, s := range u.Unreachable {
		if s.Addr.Port() == wire.DefaultPort {
			defU++
		}
	}
	fracU := float64(defU) / float64(len(u.Unreachable))
	if fracU < 0.85 || fracU > 0.92 {
		t.Errorf("default-port share (unreachable) = %.3f, want ≈0.885", fracU)
	}
}

func BenchmarkGenerateSmall(b *testing.B) {
	p := DefaultParams(1, 0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}
