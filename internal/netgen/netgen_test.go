package netgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"
	"time"

	"repro/internal/addridx"
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
	steady := p.scaled(SteadyReachable)
	persistent := p.scaled(persistentReachable)
	duty := float64(p.MeanSessionOn) / float64(p.MeanSessionOn+p.MeanSessionOff)
	ephemSteady := p.scaledF(p.FreshPerDay) * p.EphemeralLifetime.Hours() / 24
	pool := int((float64(steady-persistent) - ephemSteady) / duty)
	expReachable := persistent + pool + int(ephemSteady) +
		int(p.scaledF(p.FreshPerDay)*60)
	got := len(u.Reachable)
	if got < expReachable*9/10 || got > expReachable*11/10 {
		t.Errorf("reachable population = %d, want ≈%d", got, expReachable)
	}
	expUnreachable := p.scaled(initialUnreachable) + int(p.scaledF(unreachablePerDay)*60)
	gotU := len(u.Unreachable)
	if gotU < expUnreachable*9/10 || gotU > expUnreachable*11/10 {
		t.Errorf("unreachable population = %d, want ≈%d", gotU, expUnreachable)
	}
}

func TestSteadyOnlineCount(t *testing.T) {
	p := testParams()
	u := generate(t, p)
	steady := p.scaled(SteadyReachable)
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
	if count != p.scaled(persistentReachable) {
		t.Errorf("persistent count = %d, want %d", count, p.scaled(persistentReachable))
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
	want := p.scaled(initialUnreachable)
	if len(visible) < want*70/100 || len(visible) > want*140/100 {
		t.Errorf("visible unreachable at mid = %d, want ≈%d", len(visible), want)
	}
	for _, id := range visible {
		if !u.ByAddr(u.Index.Addr(id)).VisibleAt(mid) {
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
	want := p.scaled(maliciousCount)
	if len(malicious) != want {
		t.Errorf("malicious count = %d, want %d", len(malicious), want)
	}
	if in3320 < p.scaled(maliciousInAS3320)*7/10 {
		t.Errorf("malicious in AS3320 = %d, want ≈%d", in3320, p.scaled(maliciousInAS3320))
	}
}

func TestStationSlabLayout(t *testing.T) {
	// Stations sit in ID order: reachable first, then unreachable, and
	// the Index table agrees with every station's address.
	u := generate(t, testParams())
	for i, s := range u.Reachable {
		if s.ID != addridx.ID(i) || u.Index.Addr(s.ID) != s.Addr {
			t.Fatalf("Reachable[%d] has ID %d, address %v vs index %v", i, s.ID, s.Addr, u.Index.Addr(s.ID))
		}
	}
	for j, s := range u.Unreachable {
		if s.ID != addridx.ID(len(u.Reachable)+j) || u.Index.Addr(s.ID) != s.Addr {
			t.Fatalf("Unreachable[%d] has ID %d, address %v vs index %v", j, s.ID, s.Addr, u.Index.Addr(s.ID))
		}
	}
	mid := u.Params.Epoch.Add(Horizon / 2)
	pools := map[string][]addridx.ID{
		"online":  u.OnlineReachable(mid),
		"visible": u.VisibleUnreachable(mid),
	}
	for name, pool := range pools {
		if len(pool) == 0 {
			t.Fatalf("%s pool is empty", name)
		}
		for k := 1; k < len(pool); k++ {
			if pool[k] <= pool[k-1] {
				t.Fatalf("%s pool not strictly ascending at %d: %d after %d", name, k, pool[k], pool[k-1])
			}
		}
	}
}

// TestPoolsMatchStationScan checks the candidate pools, which scan the
// Visibility column, against a scan of the stations' time.Time model:
// at each crawl instant of the study, at the Start, End−1ns and End of a
// sample of unreachable windows (the half-open edges), and at instants
// outside the column's nanosecond range. It also checks that Generate
// leaves the column unbuilt: a universe that is never crawled pays
// nothing for it.
func TestPoolsMatchStationScan(t *testing.T) {
	u := generate(t, testParams())
	if u.vis != nil {
		t.Fatal("Generate built the visibility column")
	}
	var instants []time.Time
	for i := 0; i < int(Horizon/CrawlInterval); i++ {
		instants = append(instants, u.Params.Epoch.Add(time.Duration(i)*CrawlInterval))
	}
	step := max(len(u.Unreachable)/64, 1)
	for j := 0; j < len(u.Unreachable); j += step {
		w := u.Unreachable[j].Visible
		instants = append(instants, w.Start, w.End.Add(-time.Nanosecond), w.End)
	}
	instants = append(instants, time.Time{}, time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC))
	for _, at := range instants {
		var online, visible []addridx.ID
		for _, s := range u.Reachable {
			if s.OnlineAt(at) {
				online = append(online, s.ID)
			}
		}
		for _, s := range u.Unreachable {
			if s.VisibleAt(at) {
				visible = append(visible, s.ID)
			}
		}
		if got := u.OnlineReachable(at); !slices.Equal(got, online) {
			t.Fatalf("OnlineReachable(%v): %d stations, the station scan %d", at, len(got), len(online))
		}
		if got := u.VisibleUnreachable(at); !slices.Equal(got, visible) {
			t.Fatalf("VisibleUnreachable(%v): %d stations, the station scan %d", at, len(got), len(visible))
		}
	}
	for j, w := range u.Visibility() {
		if want := u.Unreachable[j].Class == ClassResponsive; w.Responsive != want {
			t.Fatalf("Visibility()[%d].Responsive = %v, station class %v", j, w.Responsive, u.Unreachable[j].Class)
		}
	}
}

// goldenBookDigest is the SHA-256 of 20 stations' address books (seed
// 7, scale 0.02, mid-horizon; the universe's one malicious station
// first), recorded when the books were still sampled through station
// pointers. It pins the book RNG draw order.
const goldenBookDigest = "5dd5d6098850cb5327b0f29226dbba5bf6598fbdc3aa17c4d8c2f223130eaf5e"

func TestAddrBookGoldenDigest(t *testing.T) {
	p := DefaultParams(7, 0.02)
	u := generate(t, p)
	mid := p.Epoch.Add(Horizon / 2)
	online, visible := u.OnlineReachable(mid), u.VisibleUnreachable(mid)
	var picked []*Station
	for _, s := range u.Reachable {
		if s.Malicious && len(picked) < 5 {
			picked = append(picked, s)
		}
	}
	if len(picked) == 0 {
		t.Fatal("fixture has no malicious station")
	}
	for _, s := range u.Reachable {
		if len(picked) == 20 {
			break
		}
		if !s.Malicious {
			picked = append(picked, s)
		}
	}
	h := sha256.New()
	var buf [8]byte
	for _, s := range picked {
		binary.BigEndian.PutUint32(buf[:4], uint32(s.ID))
		h.Write(buf[:4])
		for _, na := range u.AddrBookFrom(s.ID, mid, online, visible) {
			b, err := na.Addr.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
			binary.BigEndian.PutUint64(buf[:], uint64(na.Services))
			h.Write(buf[:])
			binary.BigEndian.PutUint64(buf[:], uint64(na.Timestamp.UnixNano()))
			h.Write(buf[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenBookDigest {
		t.Errorf("book digest = %s, want %s", got, goldenBookDigest)
	}
}

// goldenUniverseDigests are the SHA-256 of every station field of the
// seed-7, scale-0.02 universe under each calibration, recorded while
// every calibration value was still a Params field. They pin the
// generator's RNG draw order and every value it derives.
var goldenUniverseDigests = map[string]string{
	"2020": "5011e20db54ce03d92d57381ee43e9990aba1f6227038751bf4ade7dc8641ba6",
	"2019": "766ffdbd2e31a948fe75c4060f91cf2e3bcf1825847c9cd9803efdc5a4cf26a1",
}

func TestUniverseGoldenDigest(t *testing.T) {
	for name, p := range map[string]Params{
		"2020": DefaultParams(7, 0.02),
		"2019": Params2019(7, 0.02),
	} {
		u := generate(t, p)
		if got := universeDigest(t, u); got != goldenUniverseDigests[name] {
			t.Errorf("%s universe digest = %s, want %s", name, got, goldenUniverseDigests[name])
		}
	}
}

// universeDigest hashes every field of every station, reachable slab
// first, in ID order.
func universeDigest(t *testing.T, u *Universe) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	// Seconds and nanoseconds separately: a reachable station's zero
	// Visible window is outside UnixNano's range.
	putTime := func(ts time.Time) {
		put(uint64(ts.Unix()))
		put(uint64(ts.Nanosecond()))
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for _, pop := range [][]*Station{u.Reachable, u.Unreachable} {
		put(uint64(len(pop)))
		for _, s := range pop {
			b, err := s.Addr.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
			put(uint64(s.ID))
			put(uint64(s.ASN))
			put(uint64(s.Class))
			put(flag(s.Persistent) | flag(s.Flapper)<<1 | flag(s.Fresh)<<2 |
				flag(s.Critical)<<3 | flag(s.Malicious)<<4 |
				flag(s.OnDNS)<<5 | flag(s.OnBitnodes)<<6)
			put(uint64(s.FloodBudget))
			put(uint64(len(s.Sessions)))
			for _, iv := range s.Sessions {
				putTime(iv.Start)
				putTime(iv.End)
			}
			putTime(s.Visible.Start)
			putTime(s.Visible.End)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestAddrBookComposition(t *testing.T) {
	p := testParams()
	u := generate(t, p)
	mid := p.Epoch.Add(20 * 24 * time.Hour)
	online := u.OnlineReachable(mid)
	visible := u.VisibleUnreachable(mid)
	reach, unreach := 0, 0
	for _, id := range online[:10] {
		book := u.AddrBookFrom(id, mid, online, visible)
		if len(book) == 0 {
			t.Fatal("empty book from honest station")
		}
		if book[0].Addr != u.Index.Addr(id) {
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
		book := u.AddrBookFrom(s.ID, mid, online, visible)
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
	other := u.AddrBookFrom(s, mid.Add(CrawlInterval), online, visible)
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
	want := p.scaled(dnsListSize)
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
	if persistent.SyncedAt(p.Epoch.Add(time.Minute)) {
		t.Error("synced during IBD window")
	}
	if !persistent.SyncedAt(p.Epoch.Add(time.Hour)) {
		t.Error("not synced after IBD window")
	}
	// A fresh station needs the long first-join IBD.
	var fresh *Station
	for _, s := range u.Reachable {
		if s.Fresh && len(s.Sessions) > 0 &&
			s.Sessions[0].Duration() > ibdFirstJoin+time.Hour {
			fresh = s
			break
		}
	}
	if fresh != nil {
		start := fresh.Sessions[0].Start
		if fresh.SyncedAt(start.Add(ibdRejoin + time.Minute)) {
			t.Error("fresh station synced before first-join IBD completes")
		}
		if !fresh.SyncedAt(start.Add(ibdFirstJoin + time.Minute)) {
			t.Error("fresh station not synced after first-join IBD")
		}
	}
}

func TestNetAddrTimestampPast(t *testing.T) {
	// Every rendered book entry is gossiped at most 3h before the book's
	// instant, never after it, and carries the node-network service bit.
	p := testParams()
	u := generate(t, p)
	mid := p.Epoch.Add(10 * 24 * time.Hour)
	online, visible := u.OnlineReachable(mid), u.VisibleUnreachable(mid)
	book := u.AddrBookFrom(online[0], mid, online, visible)
	if len(book) < 2 {
		t.Fatalf("book has %d entries", len(book))
	}
	for _, na := range book {
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
