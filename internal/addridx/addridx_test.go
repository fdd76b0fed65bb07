package addridx

import (
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"strings"
	"testing"
	"unsafe"
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

// TestSeenAgainstReferenceMap: random Add/Contains/Clear/Reserve
// sequences through several resizes and one forced epoch wrap must agree
// with a map over the same key at every step.
func TestSeenAgainstReferenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pool := randAddrs(rng, 3000)
	var s Seen
	ref := make(map[key]struct{})
	resizes, wrapped := 0, false
	for op := 0; op < 40000; op++ {
		if op == 30000 {
			// Force the wrap: the next Clear takes the epoch to zero.
			s.Clear()
			clear(ref)
			s.epoch = math.MaxUint32
		}
		a := pool[rng.Intn(len(pool))]
		switch r := rng.Intn(1000); {
		case r < 600:
			_, dup := ref[keyOf(a)]
			ref[keyOf(a)] = struct{}{}
			size := len(s.slots)
			if added := s.Add(a); added == dup {
				t.Fatalf("op %d: Add(%v) = %v, reference dup = %v", op, a, added, dup)
			}
			if len(s.slots) != size {
				resizes++
			}
		case r < 995:
			_, want := ref[keyOf(a)]
			if got := s.Contains(a); got != want {
				t.Fatalf("op %d: Contains(%v) = %v, want %v", op, a, got, want)
			}
		case r < 998:
			before := s.epoch
			s.Clear()
			clear(ref)
			if before == math.MaxUint32 {
				wrapped = true
				if s.epoch != 1 {
					t.Fatalf("op %d: epoch after wrap = %d, want 1", op, s.epoch)
				}
			}
		default:
			size := len(s.slots)
			s.Reserve(rng.Intn(4000))
			if len(s.slots) != size {
				resizes++
			}
		}
		if s.n != len(ref) {
			t.Fatalf("op %d: %d members, reference has %d", op, s.n, len(ref))
		}
		if s.n*4 > len(s.slots)*3 {
			t.Fatalf("op %d: load %d/%d above 3/4", op, s.n, len(s.slots))
		}
	}
	if resizes < 3 || !wrapped {
		t.Fatalf("sequence too tame: %d resizes, wrapped = %v", resizes, wrapped)
	}
	// After the wrap every slot of an earlier epoch must read as empty.
	s.Clear()
	for _, a := range pool {
		if s.Contains(a) {
			t.Fatalf("%v survived Clear", a)
		}
	}
}

// TestSeenKeyEquality pins the equality Seen shares with Index.Lookup:
// an IPv4 endpoint and its 4-in-6 form are one member, zones are
// ignored, and the port and address still tell members apart.
func TestSeenKeyEquality(t *testing.T) {
	v4 := netip.MustParseAddrPort("1.2.3.4:8333")
	for _, same := range []netip.AddrPort{
		netip.MustParseAddrPort("[::ffff:1.2.3.4]:8333"),
		netip.AddrPortFrom(netip.MustParseAddr("::ffff:1.2.3.4%eth0"), 8333),
	} {
		var s Seen
		s.Add(v4)
		if s.Add(same) || !s.Contains(same) {
			t.Errorf("%v and %v are two members", v4, same)
		}
	}
	var s Seen
	s.Add(v4)
	for _, other := range []string{"1.2.3.4:8334", "1.2.3.5:8333", "[::1.2.3.4]:8333"} {
		if s.Contains(netip.MustParseAddrPort(other)) {
			t.Errorf("%v matched %v", other, v4)
		}
	}
}

// TestSeenReservedAddDoesNotAllocate: after Reserve(n), n adds stay
// inside the table.
func TestSeenReservedAddDoesNotAllocate(t *testing.T) {
	addrs := randAddrs(rand.New(rand.NewSource(6)), 5000)
	var s Seen
	s.Reserve(len(addrs))
	allocs := testing.AllocsPerRun(5, func() {
		s.Clear()
		for _, a := range addrs {
			s.Add(a)
		}
	})
	if allocs != 0 {
		t.Errorf("Add after Reserve(%d): %.1f allocs per %d adds, want 0", len(addrs), allocs, len(addrs))
	}
}

func TestSeenSlotIs24Bytes(t *testing.T) {
	if size := unsafe.Sizeof(seenSlot{}); size != 24 {
		t.Errorf("seenSlot is %d bytes, want 24", size)
	}
}
