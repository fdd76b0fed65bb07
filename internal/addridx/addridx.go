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
// RNG-derivation component for the parallel crawl fan-out. Endpoints
// outside any universe (a crawl over real sockets) go into a Seen, a
// pointer-free probe set over the same integer key.
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

// Seen is a growable membership set over open-world endpoints — the
// addresses no Index interns. It is an open-addressing table over the
// same integer key and hash as Index, and its slots hold no pointer, so
// the garbage collector never scans it.
//
// Key equality is Index.Lookup's: the 16-byte form of the address plus
// the port. An IPv4 endpoint and its IPv4-mapped IPv6 form
// (1.2.3.4:p and [::ffff:1.2.3.4]:p) are one member, and zones are
// ignored. For addresses decoded off the wire this is exact, because
// the decoder unmaps 4-in-6 addresses and carries no zone.
//
// A slot is occupied only while its epoch equals the set's, so Clear is
// one increment. The zero Seen is empty and usable; it is not safe for
// concurrent mutation.
type Seen struct {
	slots []seenSlot // len = 0 or 2^k
	mask  uint64
	n     int    // members in the current epoch
	epoch uint32 // 0 only while slots is nil
}

// seenSlot is 24 bytes: the key's words, its epoch, its port.
type seenSlot struct {
	hi, lo uint64
	epoch  uint32
	port   uint16
}

// Add inserts addr and reports whether it was newly added. The table
// doubles when an insert would take it past ¾ load.
func (s *Seen) Add(addr netip.AddrPort) bool {
	if (s.n+1)*4 > len(s.slots)*3 {
		s.resize(max(2*len(s.slots), 16))
	}
	k := keyOf(addr)
	h := hashKey(k) & s.mask
	for {
		sl := &s.slots[h]
		if sl.epoch != s.epoch {
			*sl = seenSlot{hi: k.hi, lo: k.lo, epoch: s.epoch, port: k.port}
			s.n++
			return true
		}
		if sl.hi == k.hi && sl.lo == k.lo && sl.port == k.port {
			return false
		}
		h = (h + 1) & s.mask
	}
}

// Contains reports whether addr is a member.
func (s *Seen) Contains(addr netip.AddrPort) bool {
	if s.n == 0 {
		return false
	}
	k := keyOf(addr)
	h := hashKey(k) & s.mask
	for {
		sl := &s.slots[h]
		if sl.epoch != s.epoch {
			return false
		}
		if sl.hi == k.hi && sl.lo == k.lo && sl.port == k.port {
			return true
		}
		h = (h + 1) & s.mask
	}
}

// Clear empties the set, keeping its table for reuse.
func (s *Seen) Clear() {
	s.n = 0
	s.epoch++
	if s.epoch == 0 {
		// Epoch wrapped: pay the one-in-four-billion full reset.
		clear(s.slots)
		s.epoch = 1
	}
}

// Reserve sizes the table so that n members fit without growing.
func (s *Seen) Reserve(n int) {
	size := 16
	for n*4 > size*3 {
		size <<= 1
	}
	if size > len(s.slots) {
		s.resize(size)
	}
}

// resize moves the current members into a fresh table of size slots.
func (s *Seen) resize(size int) {
	old, epoch := s.slots, s.epoch
	s.slots = make([]seenSlot, size)
	s.mask = uint64(size - 1)
	s.epoch = 1
	for i := range old {
		sl := &old[i]
		if sl.epoch != epoch {
			continue
		}
		h := hashKey(key{hi: sl.hi, lo: sl.lo, port: sl.port}) & s.mask
		for s.slots[h].epoch == s.epoch {
			h = (h + 1) & s.mask
		}
		s.slots[h] = seenSlot{hi: sl.hi, lo: sl.lo, epoch: s.epoch, port: sl.port}
	}
}
