package addridx

import (
	"math/rand"
	"net/netip"
	"sort"
	"strings"
	"testing"
)

// randAddrs generates n distinct random endpoints.
func randAddrs(rng *rand.Rand, n int) []netip.AddrPort {
	seen := make(map[netip.AddrPort]struct{}, n)
	out := make([]netip.AddrPort, 0, n)
	for len(out) < n {
		var b [4]byte
		rng.Read(b[:])
		a := netip.AddrPortFrom(netip.AddrFrom4(b), uint16(rng.Intn(65536)))
		if _, dup := seen[a]; dup {
			continue
		}
		seen[a] = struct{}{}
		out = append(out, a)
	}
	return out
}

// TestIndexRoundTripProperty: for random address sets, intern→resolve
// must round-trip exactly — Addr(Lookup(a)) == a for every member, in
// interning order — and non-members must miss.
func TestIndexRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		addrs := randAddrs(rng, n)
		x, err := Build(addrs)
		if err != nil {
			t.Fatal(err)
		}
		if x.Len() != n {
			t.Fatalf("trial %d: Len = %d, want %d", trial, x.Len(), n)
		}
		for i, a := range addrs {
			id, ok := x.Lookup(a)
			if !ok || id != ID(i) {
				t.Fatalf("trial %d: Lookup(%v) = (%d, %v), want (%d, true)", trial, a, id, ok, i)
			}
		}
		// Probing addresses outside the set must miss.
		for _, ghost := range randAddrs(rng, 20) {
			member := false
			for _, a := range addrs {
				if a == ghost {
					member = true
					break
				}
			}
			if id, ok := x.Lookup(ghost); ok != member {
				t.Fatalf("trial %d: Lookup(ghost %v) = (%d, %v), member = %v", trial, ghost, id, ok, member)
			}
		}
	}
}

func TestBuildRejectsDuplicates(t *testing.T) {
	a := netip.AddrPortFrom(netip.MustParseAddr("10.0.0.1"), 8333)
	b := netip.AddrPortFrom(netip.MustParseAddr("10.0.0.2"), 8333)
	c := netip.AddrPortFrom(netip.MustParseAddr("10.0.0.2"), 8334)
	for _, addrs := range [][]netip.AddrPort{
		{a, a, b, c}, // the first two
		{b, c, a, a}, // the last two
		{a, b, c, a}, // first and last
	} {
		_, err := Build(addrs)
		if err == nil || !strings.Contains(err.Error(), a.String()) {
			t.Errorf("Build(%v) = %v, want an error naming %v", addrs, err, a)
		}
	}
	if _, err := Build([]netip.AddrPort{a, b, c}); err != nil {
		t.Errorf("same address on two ports, same port on two addresses: %v", err)
	}
}

func TestCompareIsTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	addrs := randAddrs(rng, 100)
	sort.Slice(addrs, func(i, j int) bool { return Compare(addrs[i], addrs[j]) < 0 })
	for i := 1; i < len(addrs); i++ {
		if Compare(addrs[i-1], addrs[i]) >= 0 {
			t.Fatalf("order violated at %d: %v vs %v", i, addrs[i-1], addrs[i])
		}
		if Compare(addrs[i], addrs[i-1]) <= 0 {
			t.Fatalf("asymmetry violated at %d", i)
		}
	}
	if Compare(addrs[0], addrs[0]) != 0 {
		t.Error("Compare(a, a) != 0")
	}
}

// TestSetAgainstReferenceMap: a long random op sequence over Set must
// agree with a map-based reference implementation at every step.
func TestSetAgainstReferenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSet(64)
	ref := make(map[ID]struct{})
	for op := 0; op < 5000; op++ {
		id := ID(rng.Intn(1000))
		switch rng.Intn(3) {
		case 0:
			_, dup := ref[id]
			ref[id] = struct{}{}
			if added := s.Add(id); added == dup {
				t.Fatalf("op %d: Add(%d) = %v, reference dup = %v", op, id, added, dup)
			}
		case 1:
			_, want := ref[id]
			if got := s.Contains(id); got != want {
				t.Fatalf("op %d: Contains(%d) = %v, want %v", op, id, got, want)
			}
		case 2:
			if s.Count() != len(ref) {
				t.Fatalf("op %d: Count = %d, want %d", op, s.Count(), len(ref))
			}
		}
	}
}

func TestSetClearKeepsCapacity(t *testing.T) {
	s := NewSet(128)
	for i := 0; i < 128; i++ {
		s.Add(ID(i))
	}
	words := len(s.words)
	s.Clear()
	if s.Count() != 0 || s.Contains(5) {
		t.Error("Clear left members behind")
	}
	if len(s.words) != words {
		t.Error("Clear dropped capacity")
	}
	if !s.Add(5) {
		t.Error("Add after Clear not fresh")
	}
}

func BenchmarkIndexLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	addrs := randAddrs(rng, 1<<16)
	x, err := Build(addrs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := x.Lookup(addrs[i&(1<<16-1)]); !ok {
			b.Fatal("miss")
		}
	}
}
