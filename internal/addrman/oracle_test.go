package addrman

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/wire"
)

// oraclePool is the address universe of the differential workload: four
// /16 groups gossiped by sources in four groups reach only 16 of the 1024
// new buckets (1024 slots) for 1600 addresses, so new-table collisions are
// the norm and an address can collect all four references; 1600 addresses
// over the 16384 tried slots collide in about eighty pairs, and a colliding
// pair demotes one another on every Good.
func oraclePool() (addrs []netip.AddrPort, sources []netip.Addr) {
	for g := 0; g < 4; g++ {
		for h := 0; h < 400; h++ {
			addrs = append(addrs, ap(10, byte(g), byte(h>>8), byte(h), 8333))
		}
	}
	for _, s := range [][4]byte{{20, 0, 0, 1}, {20, 0, 9, 9}, {21, 1, 0, 1}, {22, 2, 0, 1}, {23, 3, 7, 7}} {
		sources = append(sources, netip.AddrFrom4(s))
	}
	return addrs, sources
}

func sameNetAddress(x, y wire.NetAddress) bool {
	return x.Addr == y.Addr && x.Services == y.Services && x.Timestamp.Equal(y.Timestamp)
}

// oracleCoverage counts the hard cases a workload actually reached, read
// off the sparse side.
type oracleCoverage struct {
	collisionDrops int           // Add of an unknown address refused by an incumbent
	multiRef       int           // most new-table references seen on one record
	demotions      int           // Good that displaced a tried occupant
	elapsed        time.Duration // virtual time the workload spanned
}

// runOracleWorkload drives a sparse manager and the dense reference with
// the same randomised call sequence on one virtual clock and fails on the
// first call whose results differ. Both sides draw from identically seeded
// Rand sources, so equal results call by call also pin the draw order.
func runOracleWorkload(t *testing.T, seed int64, steps int) (*AddrMan, *denseAddrMan, *fakeClock, oracleCoverage) {
	t.Helper()
	clk := baseClock()
	cfg := func() Config {
		return Config{Key: uint64(seed) * 0x9e3779b97f4a7c15, Now: clk.Now,
			Rand: rand.New(rand.NewSource(seed))}
	}
	sparse, dense := New(cfg()), newDense(cfg())
	addrs, sources := oraclePool()
	rng := rand.New(rand.NewSource(seed ^ 0x6f7261636c65))
	pick := func() netip.AddrPort { return addrs[rng.Intn(len(addrs))] }
	var cov oracleCoverage
	start := clk.now

	for step := 0; step < steps; step++ {
		mutated := true
		switch op := rng.Intn(100); {
		case op < 40: // Add a gossip batch
			batch := make([]wire.NetAddress, 1+rng.Intn(8))
			for i := range batch {
				// Mostly recent timestamps, some past the horizon, some
				// from the future (capped or condemned, by how far).
				ts := clk.now.Add(-time.Duration(rng.Intn(40*24)) * time.Hour)
				if rng.Intn(10) == 0 {
					ts = clk.now.Add(time.Duration(rng.Intn(120)) * time.Minute)
				}
				batch[i] = wire.NetAddress{Addr: pick(), Timestamp: ts,
					Services: wire.ServiceFlag(1 << rng.Intn(4))}
			}
			src := sources[rng.Intn(len(sources))]
			unknown := 0
			for _, na := range batch {
				if !sparse.Have(na.Addr) {
					unknown++
				}
			}
			got, want := sparse.Add(batch, src), dense.Add(batch, src)
			if got != want {
				t.Fatalf("seed %d step %d: Add = %d, oracle %d", seed, step, got, want)
			}
			if got < unknown {
				cov.collisionDrops++
			}
		case op < 55:
			a := pick()
			_, triedBefore := sparse.Counts()
			wasTried := sparse.InTried(a)
			sparse.Good(a)
			dense.Good(a)
			if _, tried := sparse.Counts(); !wasTried && tried == triedBefore {
				cov.demotions++
			}
		case op < 70:
			a := pick()
			sparse.Attempt(a)
			dense.Attempt(a)
		case op < 78: // time passes; ~100 days over 20 000 steps
			clk.advance(time.Duration(rng.Intn(4*3600)) * time.Second)
			mutated = false
		case op < 88:
			newOnly := rng.Intn(3) == 0
			got, gotOK := sparse.Select(newOnly)
			want, wantOK := dense.Select(newOnly)
			if gotOK != wantOK || !sameNetAddress(got, want) {
				t.Fatalf("seed %d step %d: Select(%v) = %v/%v, oracle %v/%v",
					seed, step, newOnly, got, gotOK, want, wantOK)
			}
			mutated = false
		case op < 92:
			got, want := sparse.GetAddr(), dense.GetAddr()
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: GetAddr returned %d, oracle %d", seed, step, len(got), len(want))
			}
			for i := range got {
				if !sameNetAddress(got[i], want[i]) {
					t.Fatalf("seed %d step %d: GetAddr[%d] = %v, oracle %v", seed, step, i, got[i], want[i])
				}
			}
			mutated = false
		default:
			a := pick()
			info := sparse.info[a]
			got, want := info != nil && sparse.isTerribleLocked(info, clk.Now()), dense.IsTerrible(a)
			if got != want {
				t.Fatalf("seed %d step %d: IsTerrible(%v) = %v, oracle %v", seed, step, a, got, want)
			}
			mutated = false
		}
		if !mutated {
			continue
		}
		if err := sparse.check(); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
		gn, gt := sparse.Counts()
		wn, wt := dense.Counts()
		if gn != wn || gt != wt || sparse.Size() != dense.Size() {
			t.Fatalf("seed %d step %d: counts %d/%d size %d, oracle %d/%d size %d",
				seed, step, gn, gt, sparse.Size(), wn, wt, dense.Size())
		}
		for _, info := range sparse.newList {
			if info.refCount > cov.multiRef {
				cov.multiRef = info.refCount
			}
		}
	}
	cov.elapsed = clk.now.Sub(start)
	for _, a := range addrs {
		if sparse.Have(a) != dense.Have(a) || sparse.InTried(a) != dense.InTried(a) {
			t.Fatalf("seed %d: %v: have/tried %v/%v, oracle %v/%v", seed, a,
				sparse.Have(a), sparse.InTried(a), dense.Have(a), dense.InTried(a))
		}
	}
	return sparse, dense, clk, cov
}

// TestSparseMatchesDenseOracle is the behavioural proof that replacing the
// dense bucket arrays with the slot index changed nothing observable.
func TestSparseMatchesDenseOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			_, _, _, cov := runOracleWorkload(t, seed, 20000)
			if cov.collisionDrops < 100 || cov.multiRef < maxNewRefs || cov.demotions < 5 ||
				cov.elapsed < 2*DefaultHorizon {
				t.Errorf("workload too easy: %+v", cov)
			}
		})
	}
}

// TestNewIsCheap pins what the slot index bought: a manager is a small
// header plus two empty maps, not 2.5 MiB of bucket arrays. node.New makes
// one per node start, so eager tables must not come back.
func TestNewIsCheap(t *testing.T) {
	if size := unsafe.Sizeof(AddrMan{}); size > 512 {
		t.Errorf("sizeof(AddrMan) = %d B, want <= 512", size)
	}
	// With the caller's Rand, as node.New passes it: the default source
	// alone is 4.9 KiB.
	cfg := Config{Key: 1, Now: time.Now, Rand: rand.New(rand.NewSource(1))}
	const n = 200
	keep := make([]*AddrMan, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = New(cfg)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 4096 {
		t.Errorf("New allocates %d B, want < 4 KiB", per)
	}
	runtime.KeepAlive(keep)
}
