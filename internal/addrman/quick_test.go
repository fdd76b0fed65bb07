package addrman

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/wire"
)

// Property-based tests over the address manager's core invariants.

// TestSelectAlwaysReturnsKnownProperty: whatever mix of operations ran,
// Select only ever returns addresses the manager still knows.
func TestSelectAlwaysReturnsKnownProperty(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		clk := &fakeClock{now: time.Unix(1586000000, 0).UTC()}
		am := New(Config{Key: uint64(seed), Now: clk.Now,
			Rand: rand.New(rand.NewSource(seed))})
		rng := rand.New(rand.NewSource(seed ^ 7))
		src := netip.AddrFrom4([4]byte{9, 9, 9, 9})
		var known []netip.AddrPort
		for _, op := range ops {
			switch op % 6 {
			case 0, 1:
				a := netip.AddrPortFrom(netip.AddrFrom4(
					[4]byte{byte(rng.Intn(200) + 1), byte(rng.Intn(255)),
						byte(rng.Intn(255)), 1}), 8333)
				am.Add([]wire.NetAddress{{Addr: a, Timestamp: clk.now}}, src)
				known = append(known, a)
			case 2:
				if len(known) > 0 {
					am.Good(known[rng.Intn(len(known))])
				}
			case 3:
				if len(known) > 0 {
					am.Attempt(known[rng.Intn(len(known))])
				}
			case 4:
				clk.advance(time.Duration(rng.Intn(72)) * time.Hour)
			case 5:
				if na, ok := am.Select(rng.Intn(2) == 0); ok {
					if !am.Have(na.Addr) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGetAddrSubsetProperty: GetAddr returns only known, non-terrible,
// distinct addresses, never exceeding the 1000 cap.
func TestGetAddrSubsetProperty(t *testing.T) {
	f := func(n uint16, seed int64) bool {
		clk := &fakeClock{now: time.Unix(1586000000, 0).UTC()}
		am := New(Config{Key: uint64(seed), Now: clk.Now,
			Rand: rand.New(rand.NewSource(seed))})
		src := netip.AddrFrom4([4]byte{9, 9, 9, 9})
		count := int(n%3000) + 1
		for i := 0; i < count; i++ {
			a := netip.AddrPortFrom(netip.AddrFrom4(
				[4]byte{byte(i>>8) + 1, byte(i), 3, 1}), 8333)
			am.Add([]wire.NetAddress{{Addr: a, Timestamp: clk.now}}, src)
		}
		got := am.GetAddr()
		if len(got) > 1000 {
			return false
		}
		seen := make(map[netip.AddrPort]bool, len(got))
		for _, na := range got {
			if seen[na.Addr] || !am.Have(na.Addr) || terrible(am, na.Addr) {
				return false
			}
			seen[na.Addr] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCountsConsistentProperty: nNew + nTried always equals the number of
// tracked addresses after any operation sequence.
func TestCountsConsistentProperty(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		clk := &fakeClock{now: time.Unix(1586000000, 0).UTC()}
		am := New(Config{Key: uint64(seed), Now: clk.Now,
			Rand: rand.New(rand.NewSource(seed))})
		rng := rand.New(rand.NewSource(seed ^ 13))
		src := netip.AddrFrom4([4]byte{8, 8, 8, 8})
		var known []netip.AddrPort
		for _, op := range ops {
			switch op % 5 {
			case 0, 1, 2:
				a := netip.AddrPortFrom(netip.AddrFrom4(
					[4]byte{byte(rng.Intn(120) + 1), byte(rng.Intn(255)),
						byte(rng.Intn(255)), 1}), uint16(rng.Intn(65000)+1))
				am.Add([]wire.NetAddress{{Addr: a, Timestamp: clk.now}}, src)
				known = append(known, a)
			case 3:
				if len(known) > 0 {
					am.Good(known[rng.Intn(len(known))])
				}
			case 4:
				clk.advance(time.Duration(rng.Intn(24)) * time.Hour)
			}
			numNew, numTried := am.Counts()
			if numNew+numTried != am.Size() {
				return false
			}
			if numNew < 0 || numTried < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
