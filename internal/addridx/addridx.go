// Package addridx interns a fixed universe of netip.AddrPort endpoints
// into dense uint32 station identifiers.
//
// The crawl hot paths (Algorithm 1's per-node drain, the longitudinal
// study's cumulative bookkeeping) are membership-set bound: with
// map[netip.AddrPort] sets, every received address pays 28-byte key
// hashing and every snapshot pays map growth and rehash churn. Interning
// the universe once at construction replaces all of that with a single
// probe-table lookup per address followed by O(1) bitset operations —
// and the dense IDs double as the deterministic per-target
// RNG-derivation component for the parallel crawl fan-out.
//
// addridx is a leaf package (no repo-internal imports) so netgen,
// crawler, churn, and analysis can all share it without cycles.
package addridx

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
)

// ID is a dense station identifier: the position of the address in the
// interning order (for a netgen universe, generation order).
type ID uint32

// None marks an address outside the interned universe.
const None ID = math.MaxUint32

// Compare orders two endpoints by address then port — a total order for
// callers breaking output-ordering ties without reimplementing it.
func Compare(a, b netip.AddrPort) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	switch {
	case a.Port() < b.Port():
		return -1
	case a.Port() > b.Port():
		return 1
	default:
		return 0
	}
}

// key is the integer form of an endpoint the probe table stores: the
// 16-byte address (IPv4 mapped into IPv6 space) split into two big-endian
// words, then the port. Comparing keys costs three register compares
// where netip.Addr.Compare pays format dispatch on every call. Zones are
// ignored; a scoped-address universe is not a crawl target.
type key struct {
	hi, lo uint64
	port   uint16
}

func keyOf(a netip.AddrPort) key {
	b := a.Addr().As16()
	return key{
		hi:   binary.BigEndian.Uint64(b[:8]),
		lo:   binary.BigEndian.Uint64(b[8:]),
		port: a.Port(),
	}
}

// Index is an immutable intern table: addrs[id] is the endpoint interned
// as id, and Lookup resolves an endpoint to its ID in O(1) expected via a
// flat open-addressing probe table over the integer keys (binary search
// over a sorted table costs ~14 dependent cache misses per address at
// universe scale, which profiling showed was the single largest slice of
// a crawl). An Index is safe for concurrent use once built.
type Index struct {
	addrs []netip.AddrPort // dense table, addrs[id]
	slots []slot           // open-addressing lookup table, len = 2^k
	mask  uint64
}

// slot is one probe-table entry; id == None marks an empty slot.
type slot struct {
	k  key
	id ID
}

func hashKey(k key) uint64 {
	// splitmix64 finalizer over the folded key words.
	x := k.hi ^ (k.lo * 0x9e3779b97f4a7c15) ^ uint64(k.port)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Build interns addrs in the given order: addrs[i] gets ID(i). The
// input must be duplicate-free (a universe has one station per
// endpoint); duplicates are reported as an error rather than silently
// collapsed.
func Build(addrs []netip.AddrPort) (*Index, error) {
	if len(addrs) >= int(None) {
		return nil, fmt.Errorf("addridx: %d addresses overflow the ID space", len(addrs))
	}
	x := &Index{addrs: append([]netip.AddrPort(nil), addrs...)}

	// Probe table at ≤50% load: linear probing stays a one-cache-line
	// affair on average.
	size := uint64(1)
	for size < uint64(2*len(addrs)+1) {
		size <<= 1
	}
	x.slots = make([]slot, size)
	x.mask = size - 1
	for i := range x.slots {
		x.slots[i].id = None
	}
	for id, a := range x.addrs {
		k := keyOf(a)
		h := hashKey(k) & x.mask
		for x.slots[h].id != None {
			if x.slots[h].k == k {
				return nil, fmt.Errorf("addridx: duplicate address %v", a)
			}
			h = (h + 1) & x.mask
		}
		x.slots[h] = slot{k: k, id: ID(id)}
	}
	return x, nil
}

// Len returns the number of interned addresses.
func (x *Index) Len() int { return len(x.addrs) }

// Lookup resolves addr to its dense ID, or (None, false) when addr is
// outside the interned universe.
func (x *Index) Lookup(addr netip.AddrPort) (ID, bool) {
	if len(x.slots) == 0 {
		return None, false
	}
	k := keyOf(addr)
	h := hashKey(k) & x.mask
	for {
		s := &x.slots[h]
		if s.id == None {
			return None, false
		}
		if s.k == k {
			return s.id, true
		}
		h = (h + 1) & x.mask
	}
}

// Set is a bitset over dense IDs — the hot-path replacement for
// map[netip.AddrPort]struct{} membership sets. The zero Set is empty
// and usable; it grows on Add. A Set is not safe for concurrent
// mutation.
type Set struct {
	words []uint64
	count int
}

// NewSet returns a set pre-sized for IDs in [0, n).
func NewSet(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64)}
}

// Add inserts id and reports whether it was newly added.
func (s *Set) Add(id ID) bool {
	w := int(id >> 6)
	if w >= len(s.words) {
		grown := make([]uint64, w+1)
		copy(grown, s.words)
		s.words = grown
	}
	mask := uint64(1) << (id & 63)
	if s.words[w]&mask != 0 {
		return false
	}
	s.words[w] |= mask
	s.count++
	return true
}

// Contains reports whether id is in the set.
func (s *Set) Contains(id ID) bool {
	w := int(id >> 6)
	return w < len(s.words) && s.words[w]&(1<<(id&63)) != 0
}

// Count returns the number of members.
func (s *Set) Count() int { return s.count }

// Clear empties the set, keeping its capacity for reuse.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.count = 0
}
