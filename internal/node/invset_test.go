package node

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/chainhash"
)

// hashWithKey builds a hash whose invKey is k.
func hashWithKey(k uint64) chainhash.Hash {
	var h chainhash.Hash
	binary.LittleEndian.PutUint64(h[:8], k)
	return h
}

// TestInvSetMatchesMap drives Peer.markKnown/knows against the map the
// flat set replaced, with the map's own bound ("at 8192 keys start over,
// then insert"). The keys include 0 (the flag beside the table), repeats,
// and runs that share their low bits so probe sequences overlap and wrap.
// Membership of the touched key and of a second drawn key, and the count,
// must agree after every call; whenever the table changes size, and at
// intervals, the whole table is compared with the whole map.
func TestInvSetMatchesMap(t *testing.T) {
	const calls = 40000
	sizes := map[int]bool{}
	resets := 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// 24 000 possible keys: enough distinct ones to reach the bound
		// several times, few enough that adds repeat and probes hit. Only
		// 256 distinct values of the low 10 bits, so keys cluster.
		draw := func() uint64 {
			if rng.Intn(500) == 0 {
				return 0
			}
			id := uint64(rng.Intn(24000))
			return (id+1)<<10 | id&0xff<<2
		}
		p := &Peer{}
		model := map[uint64]struct{}{}
		sweep := func(call int) {
			t.Helper()
			for k := range model {
				if !p.knownInv.has(k) {
					t.Fatalf("seed %d call %d: key %#x in the map, not in the set", seed, call, k)
				}
			}
			cells := 0
			for _, k := range p.knownInv.cells {
				if k == 0 {
					continue
				}
				cells++
				if _, ok := model[k]; !ok {
					t.Fatalf("seed %d call %d: key %#x in the table, not in the map", seed, call, k)
				}
			}
			if _, zero := model[0]; zero != p.knownInv.zero {
				t.Fatalf("seed %d call %d: zero flag = %v, map says %v", seed, call, p.knownInv.zero, zero)
			}
			if p.knownInv.zero {
				cells++
			}
			if cells != len(model) {
				t.Fatalf("seed %d call %d: table holds %d keys, map %d", seed, call, cells, len(model))
			}
		}
		for call := 0; call < calls; call++ {
			k := draw()
			if rng.Intn(3) > 0 {
				if len(model) >= maxKnownInv {
					model = map[uint64]struct{}{}
					resets++
				}
				model[k] = struct{}{}
				before := len(p.knownInv.cells)
				p.markKnown(hashWithKey(k))
				if after := len(p.knownInv.cells); after != before {
					sizes[after] = true
					sweep(call)
				}
			}
			for _, q := range [2]uint64{k, draw()} {
				_, want := model[q]
				if got := p.knows(hashWithKey(q)); got != want {
					t.Fatalf("seed %d call %d: knows(%#x) = %v, map says %v", seed, call, q, got, want)
				}
			}
			if p.knownInv.n != len(model) {
				t.Fatalf("seed %d call %d: count = %d, map has %d", seed, call, p.knownInv.n, len(model))
			}
			if call%2000 == 0 {
				sweep(call)
			}
		}
		sweep(calls)
	}
	for size := invSetMinCells; size <= 2*maxKnownInv; size *= 2 {
		if !sizes[size] {
			t.Errorf("the table never had %d cells", size)
		}
	}
	if len(sizes) != 11 {
		t.Errorf("table sizes seen: %v, want the 11 powers of two from %d to %d", sizes, invSetMinCells, 2*maxKnownInv)
	}
	if resets < 3 {
		t.Errorf("the %d-key bound was reached %d times, want at least once per seed", maxKnownInv, resets)
	}
}
