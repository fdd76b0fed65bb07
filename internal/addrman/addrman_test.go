package addrman

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/wire"
)

// fakeClock is an adjustable time source for horizon/eviction tests.
type fakeClock struct {
	now time.Time
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) advance(d time.Duration) { c.now = c.now.Add(d) }

func newTestManager(clk *fakeClock) *AddrMan {
	return New(Config{
		Key:  42,
		Now:  clk.Now,
		Rand: rand.New(rand.NewSource(7)),
	})
}

func ap(a, b, c, d byte, port uint16) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{a, b, c, d}), port)
}

func na(clk *fakeClock, addr netip.AddrPort) wire.NetAddress {
	return wire.NetAddress{Addr: addr, Services: wire.SFNodeNetwork, Timestamp: clk.now}
}

func baseClock() *fakeClock {
	return &fakeClock{now: time.Unix(1586000000, 0).UTC()}
}

func TestAddAndCounts(t *testing.T) {
	clk := baseClock()
	am := newTestManager(clk)
	src := netip.AddrFrom4([4]byte{9, 9, 9, 9})
	addrs := []wire.NetAddress{
		na(clk, ap(1, 2, 3, 4, 8333)),
		na(clk, ap(5, 6, 7, 8, 8333)),
	}
	added := am.Add(addrs, src)
	if added != 2 {
		t.Fatalf("added = %d, want 2", added)
	}
	numNew, numTried := am.Counts()
	if numNew != 2 || numTried != 0 {
		t.Errorf("counts = %d/%d, want 2/0", numNew, numTried)
	}
	if !am.Have(addrs[0].Addr) {
		t.Error("Have = false for added address")
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	clk := baseClock()
	am := newTestManager(clk)
	src := netip.AddrFrom4([4]byte{9, 9, 9, 9})
	bad := []wire.NetAddress{
		{Addr: netip.AddrPort{}},           // invalid
		{Addr: netip.AddrPortFrom(src, 0)}, // port 0
	}
	if added := am.Add(bad, src); added != 0 {
		t.Errorf("added = %d, want 0", added)
	}
}

func TestAddDuplicateNotCounted(t *testing.T) {
	clk := baseClock()
	am := newTestManager(clk)
	src := netip.AddrFrom4([4]byte{9, 9, 9, 9})
	addr := na(clk, ap(1, 2, 3, 4, 8333))
	am.Add([]wire.NetAddress{addr}, src)
	if added := am.Add([]wire.NetAddress{addr}, src); added != 0 {
		t.Errorf("re-add counted as new: %d", added)
	}
	if am.Size() != 1 {
		t.Errorf("Size = %d, want 1", am.Size())
	}
}

func TestGoodPromotesToTried(t *testing.T) {
	clk := baseClock()
	am := newTestManager(clk)
	src := netip.AddrFrom4([4]byte{9, 9, 9, 9})
	addr := ap(1, 2, 3, 4, 8333)
	am.Add([]wire.NetAddress{na(clk, addr)}, src)
	if am.InTried(addr) {
		t.Fatal("fresh address must start in new")
	}
	am.Good(addr)
	if !am.InTried(addr) {
		t.Fatal("Good must promote to tried")
	}
	numNew, numTried := am.Counts()
	if numNew != 0 || numTried != 1 {
		t.Errorf("counts = %d/%d, want 0/1", numNew, numTried)
	}
	// Promotion must be idempotent.
	am.Good(addr)
	numNew, numTried = am.Counts()
	if numNew != 0 || numTried != 1 {
		t.Errorf("counts after second Good = %d/%d, want 0/1", numNew, numTried)
	}
}

func TestGoodUnknownAddress(t *testing.T) {
	clk := baseClock()
	am := newTestManager(clk)
	addr := ap(8, 8, 8, 8, 8333)
	am.Good(addr) // e.g. -connect peer never learned via gossip
	if !am.InTried(addr) {
		t.Error("unknown address marked Good should land in tried")
	}
}

func TestSelectEmpty(t *testing.T) {
	am := newTestManager(baseClock())
	if _, ok := am.Select(false); ok {
		t.Error("Select on empty manager should fail")
	}
	if _, ok := am.Select(true); ok {
		t.Error("Select(newOnly) on empty manager should fail")
	}
}

func TestSelectReturnsKnownAddress(t *testing.T) {
	clk := baseClock()
	am := newTestManager(clk)
	src := netip.AddrFrom4([4]byte{9, 9, 9, 9})
	want := ap(1, 2, 3, 4, 8333)
	am.Add([]wire.NetAddress{na(clk, want)}, src)
	got, ok := am.Select(false)
	if !ok {
		t.Fatal("Select failed with one address")
	}
	if got.Addr != want {
		t.Errorf("Select = %v, want %v", got.Addr, want)
	}
}

func TestSelectNewOnlySkipsTried(t *testing.T) {
	clk := baseClock()
	am := newTestManager(clk)
	src := netip.AddrFrom4([4]byte{9, 9, 9, 9})
	tried := ap(1, 1, 1, 1, 8333)
	am.Add([]wire.NetAddress{na(clk, tried)}, src)
	am.Good(tried)
	if _, ok := am.Select(true); ok {
		t.Error("Select(newOnly) should fail when only tried entries exist")
	}
	fresh := ap(2, 2, 2, 2, 8333)
	am.Add([]wire.NetAddress{na(clk, fresh)}, src)
	got, ok := am.Select(true)
	if !ok || got.Addr != fresh {
		t.Errorf("Select(newOnly) = %v/%v, want %v", got.Addr, ok, fresh)
	}
}

func TestSelectEqualProbability(t *testing.T) {
	clk := baseClock()
	am := newTestManager(clk)
	src := netip.AddrFrom4([4]byte{9, 9, 9, 9})
	// One tried address, many new addresses: with equal table probability,
	// the tried address should still be picked roughly half the time —
	// exactly the bias the paper notes (tried is healthier but does not
	// dominate selection).
	tried := ap(1, 1, 1, 1, 8333)
	am.Add([]wire.NetAddress{na(clk, tried)}, src)
	am.Good(tried)
	for i := 0; i < 200; i++ {
		am.Add([]wire.NetAddress{na(clk, ap(10, byte(i/200), byte(i), 1, 8333))}, src)
	}
	triedHits := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		got, ok := am.Select(false)
		if !ok {
			t.Fatal("Select failed")
		}
		if got.Addr == tried {
			triedHits++
		}
	}
	frac := float64(triedHits) / trials
	if frac < 0.40 || frac > 0.60 {
		t.Errorf("tried selection fraction = %.3f, want ~0.5", frac)
	}
}

func TestGetAddrRespectsCapAndPct(t *testing.T) {
	clk := baseClock()
	am := newTestManager(clk)
	src := netip.AddrFrom4([4]byte{9, 9, 9, 9})
	var batch []wire.NetAddress
	count := 0
	for a := 1; a <= 40 && count < 10000; a++ {
		for b := 0; b < 250 && count < 10000; b++ {
			batch = append(batch, na(clk, ap(byte(a), byte(b), 1, 1, 8333)))
			count++
		}
	}
	am.Add(batch, src)
	got := am.GetAddr()
	if len(got) > 1000 {
		t.Errorf("GetAddr returned %d addresses, cap is 1000", len(got))
	}
	size := am.Size()
	want := size * 23 / 100
	if want > 1000 {
		want = 1000
	}
	if len(got) != want {
		t.Errorf("GetAddr = %d addresses, want %d (23%% of %d capped)", len(got), want, size)
	}
	// No duplicates in the sample.
	seen := make(map[netip.AddrPort]bool, len(got))
	for _, a := range got {
		if seen[a.Addr] {
			t.Fatalf("duplicate %v in GetAddr sample", a.Addr)
		}
		seen[a.Addr] = true
	}
}

func TestGetAddrTriedOnly(t *testing.T) {
	clk := baseClock()
	am := New(Config{
		Key:              1,
		Now:              clk.Now,
		Rand:             rand.New(rand.NewSource(3)),
		TriedOnlyGetAddr: true,
	})
	src := netip.AddrFrom4([4]byte{9, 9, 9, 9})
	tried := ap(1, 1, 1, 1, 8333)
	am.Add([]wire.NetAddress{na(clk, tried)}, src)
	am.Good(tried)
	for i := 0; i < 50; i++ {
		am.Add([]wire.NetAddress{na(clk, ap(20, byte(i), 1, 1, 8333))}, src)
	}
	got := am.GetAddr()
	for _, a := range got {
		if !am.InTried(a.Addr) {
			t.Fatalf("TriedOnlyGetAddr returned non-tried address %v", a.Addr)
		}
	}
	if len(got) == 0 {
		t.Error("TriedOnlyGetAddr returned nothing despite tried entries")
	}
}

// terrible evaluates the eviction predicate on a known address, as the
// collision and GETADDR paths do.
func terrible(am *AddrMan, addr netip.AddrPort) bool {
	return am.isTerribleLocked(am.info[addr], am.cfg.Now())
}

func TestIsTerribleHorizon(t *testing.T) {
	clk := baseClock()
	am := newTestManager(clk)
	src := netip.AddrFrom4([4]byte{9, 9, 9, 9})
	addr := ap(1, 2, 3, 4, 8333)
	am.Add([]wire.NetAddress{na(clk, addr)}, src)
	if terrible(am, addr) {
		t.Fatal("fresh address must not be terrible")
	}
	clk.advance(31 * 24 * time.Hour)
	if !terrible(am, addr) {
		t.Error("address beyond the 30-day horizon must be terrible")
	}
}

func TestIsTerribleCustomHorizon(t *testing.T) {
	// The §V refinement: a 17-day horizon evicts a departed node's address
	// nearly two weeks sooner.
	clk := baseClock()
	am := New(Config{
		Key:     1,
		Horizon: 17 * 24 * time.Hour,
		Now:     clk.Now,
		Rand:    rand.New(rand.NewSource(3)),
	})
	src := netip.AddrFrom4([4]byte{9, 9, 9, 9})
	addr := ap(1, 2, 3, 4, 8333)
	am.Add([]wire.NetAddress{na(clk, addr)}, src)
	clk.advance(18 * 24 * time.Hour)
	if !terrible(am, addr) {
		t.Error("address beyond a 17-day horizon must be terrible")
	}
}

func TestIsTerribleFailedAttempts(t *testing.T) {
	clk := baseClock()
	am := newTestManager(clk)
	src := netip.AddrFrom4([4]byte{9, 9, 9, 9})
	addr := ap(1, 2, 3, 4, 8333)
	am.Add([]wire.NetAddress{na(clk, addr)}, src)
	for i := 0; i < retriesBeforeTerrible; i++ {
		am.Attempt(addr)
		clk.advance(5 * time.Minute)
	}
	if !terrible(am, addr) {
		t.Error("never-successful address with 3 failed attempts must be terrible")
	}
}

func TestIsTerribleRecentTryGrace(t *testing.T) {
	clk := baseClock()
	am := newTestManager(clk)
	src := netip.AddrFrom4([4]byte{9, 9, 9, 9})
	addr := ap(1, 2, 3, 4, 8333)
	am.Add([]wire.NetAddress{na(clk, addr)}, src)
	for i := 0; i < 5; i++ {
		am.Attempt(addr)
	}
	// The last attempt was within a minute: grace period applies.
	if terrible(am, addr) {
		t.Error("address tried within the last minute must not be terrible")
	}
}

func TestIsTerribleFutureTimestamp(t *testing.T) {
	clk := baseClock()
	am := newTestManager(clk)
	src := netip.AddrFrom4([4]byte{9, 9, 9, 9})
	addr := ap(1, 2, 3, 4, 8333)
	future := wire.NetAddress{
		Addr:      addr,
		Timestamp: clk.now.Add(24 * time.Hour),
	}
	am.Add([]wire.NetAddress{future}, src)
	// Timestamps are capped at insert, so this lands at "now" and is fine;
	// simulate a raw record with a future stamp via Good + manual check
	// instead: advancing backwards is not supported, so assert the capped
	// behaviour.
	if terrible(am, addr) {
		t.Error("capped-timestamp address must not be terrible")
	}
}

func TestGetAddrExcludesTerrible(t *testing.T) {
	clk := baseClock()
	am := newTestManager(clk)
	src := netip.AddrFrom4([4]byte{9, 9, 9, 9})
	old := ap(1, 1, 1, 1, 8333)
	am.Add([]wire.NetAddress{na(clk, old)}, src)
	clk.advance(35 * 24 * time.Hour)
	fresh := ap(2, 2, 2, 2, 8333)
	am.Add([]wire.NetAddress{na(clk, fresh)}, src)
	for _, a := range am.GetAddr() {
		if a.Addr == old {
			t.Error("GetAddr returned a terrible address")
		}
	}
}

// checkInvariants fails the test when check() finds the index, the
// reference lists, the sampling lists or the counters out of step.
func checkInvariants(t *testing.T, am *AddrMan) {
	t.Helper()
	if err := am.check(); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantsUnderRandomWorkload hammers the manager with a random
// sequence of Add/Good/Attempt operations and checks structural
// invariants throughout.
func TestInvariantsUnderRandomWorkload(t *testing.T) {
	clk := baseClock()
	am := newTestManager(clk)
	rng := rand.New(rand.NewSource(99))
	var known []netip.AddrPort
	for step := 0; step < 3000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // add
			addr := ap(byte(rng.Intn(200)+1), byte(rng.Intn(256)),
				byte(rng.Intn(256)), byte(rng.Intn(256)), 8333)
			src := netip.AddrFrom4([4]byte{byte(rng.Intn(250) + 1), 0, 0, 1})
			am.Add([]wire.NetAddress{na(clk, addr)}, src)
			known = append(known, addr)
		case 5, 6: // good
			if len(known) > 0 {
				am.Good(known[rng.Intn(len(known))])
			}
		case 7, 8: // attempt
			if len(known) > 0 {
				am.Attempt(known[rng.Intn(len(known))])
			}
		case 9: // time passes
			clk.advance(time.Duration(rng.Intn(48)) * time.Hour)
		}
		if step%250 == 0 {
			checkInvariants(t, am)
		}
	}
	checkInvariants(t, am)
}

func BenchmarkAdd(b *testing.B) {
	clk := baseClock()
	am := newTestManager(clk)
	src := netip.AddrFrom4([4]byte{9, 9, 9, 9})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := ap(byte(i>>16), byte(i>>8), byte(i), 1, 8333)
		am.Add([]wire.NetAddress{{Addr: addr, Timestamp: clk.now}}, src)
	}
}

func BenchmarkSelect(b *testing.B) {
	clk := baseClock()
	am := newTestManager(clk)
	src := netip.AddrFrom4([4]byte{9, 9, 9, 9})
	for i := 0; i < 5000; i++ {
		addr := ap(byte(i>>8), byte(i), 1, 1, 8333)
		am.Add([]wire.NetAddress{{Addr: addr, Timestamp: clk.now}}, src)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		am.Select(false)
	}
}
