package analysis

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/simnet"
)

// TestAddPeersSeeds builds RunResync's background network (30 peers, 20
// live-only seeds each, seed 7): every peer must start with 20 valid seeds,
// none of them its own address. A seed drawn from a live list that is not
// yet filled is the zero address, which the address manager drops.
func TestAddPeersSeeds(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 7})
	live := addrBlock(netip.AddrFrom4([4]byte{10, 2, 0, 0}), 30)
	hosts := addPeers(net, rand.New(rand.NewSource(7)), chain.GenesisBlock("resync"), nil, live, nil, 20)
	for _, h := range hosts {
		seeds := h.Config().SeedAddrs
		if len(seeds) != 20 {
			t.Fatalf("%v: %d seeds, want 20", h.Addr(), len(seeds))
		}
		for _, s := range seeds {
			if !s.Addr.IsValid() || s.Addr == h.Addr() {
				t.Fatalf("%v: seed %v is invalid or its own address", h.Addr(), s.Addr)
			}
		}
	}
}

func TestSeedSample(t *testing.T) {
	live := addrBlock(netip.AddrFrom4([4]byte{10, 0, 0, 0}), 5)
	dead := addrBlock(netip.AddrFrom4([4]byte{172, 0, 0, 0}), 50)
	self := live[2]
	for _, s := range seedSample(rand.New(rand.NewSource(1)), live, dead, 0.5, 500, self, time.Time{}) {
		if s.Addr == self {
			t.Fatal("seedSample returned self")
		}
	}

	// With no dead addresses every seed is live and only the pick is
	// drawn: the seeds are the live picks of a fresh rng, self skipped.
	got := seedSample(rand.New(rand.NewSource(2)), live, nil, 0.5, 40, self, time.Time{})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < len(got); {
		a := live[rng.Intn(len(live))]
		if a == self {
			continue
		}
		if got[i].Addr != a {
			t.Fatalf("seed %d = %v, want %v: a share was drawn", i, got[i].Addr, a)
		}
		i++
	}
}

func TestAddrBlock(t *testing.T) {
	// The block crosses a byte boundary of the address.
	base := netip.AddrFrom4([4]byte{10, 1, 0, 250})
	got := addrBlock(base, 10)
	if len(got) != 10 {
		t.Fatalf("%d addresses, want 10", len(got))
	}
	for i, a := range got {
		if i == 0 && a.Addr() != base || i > 0 && a.Addr() != got[i-1].Addr().Next() {
			t.Fatalf("address %d = %v: not consecutive from %v", i, a, base)
		}
		if a.Port() != 8333 {
			t.Fatalf("address %d = %v: port not 8333", i, a)
		}
	}
	if last := got[9].Addr(); last != netip.AddrFrom4([4]byte{10, 1, 1, 3}) {
		t.Fatalf("last address %v, want 10.1.1.3", last)
	}
}

func TestMineAtBest(t *testing.T) {
	// Three unconnected nodes; host 0 is one block ahead, so it is the only
	// host at the best height.
	net := simnet.New(simnet.Config{Seed: 3})
	live := addrBlock(netip.AddrFrom4([4]byte{10, 0, 0, 0}), 3)
	hosts := addPeers(net, rand.New(rand.NewSource(3)), chain.GenesisBlock("mine"), nil, live, nil, 0)
	if _, err := hosts[0].Node().MineBlock(0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5; i++ {
		if !mineAtBest(rng, hosts, 50, 0) {
			t.Fatalf("round %d: no block mined", i)
		}
	}
	for i, h := range hosts {
		want := int32(0)
		if i == 0 {
			want = 6
		}
		if got := h.Node().Chain().Height(); got != want {
			t.Errorf("host %d at height %d, want %d", i, got, want)
		}
	}

	// No draw can find an online host at the best height: no block.
	for _, h := range hosts {
		h.Stop()
	}
	if mineAtBest(rng, hosts, 50, 0) {
		t.Error("mined with every host offline")
	}
}
