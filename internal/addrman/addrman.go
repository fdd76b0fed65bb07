// Package addrman reimplements Bitcoin Core's address manager (addrman),
// the component the paper's §IV-B identifies as a root cause of poor
// synchronization: it stores every address learned from ADDR gossip in a
// "new" table and promotes addresses it has successfully connected to into
// a "tried" table, selecting between the two with equal probability when
// opening outbound connections. Because ADDR gossip is dominated by
// unreachable addresses (85.1% in the paper's measurements), the new table
// fills with addresses that can never be connected to, driving the 88.8%
// outbound connection failure rate the paper reports.
//
// The package also implements the two §V refinements so they can be
// evaluated: a tried-only GETADDR response mode and a configurable
// eviction horizon (the paper proposes lowering Bitcoin Core's 30 days to
// 17 days, matching the measured mean node lifetime of 16.6 days).
//
// # Address manager tables
//
// NewBucketCount × BucketSize new slots and TriedBucketCount × BucketSize
// tried slots (81 920 in all, Bitcoin Core's geometry) are the logical
// tables: the placement hashes reduce by those constants, and collision,
// eviction and demotion are decided per logical slot. They are not the
// storage. One map keyed by table<<31 | bucket<<6 | slot holds a pointer
// to the occupying record for each occupied slot and nothing for an empty
// one, and each record lists its own (at most four) new-table slot keys
// inline. A simulated node learns about 300 addresses (0.4 % occupancy),
// and a churned experiment builds a manager at every node start, so
// storage follows the addresses held: New allocates 256 B in 3 objects and
// a manager holding 300 addresses is about 90 KiB, where the two dense
// [bucket][slot]netip.AddrPort arrays cost 2.5 MiB of pointer-bearing
// memory per manager, zeroed at birth and scanned by every GC cycle. A map
// rather than dense arrays allocated on first touch, because a second tier
// would keep the geometry-sized cost for any manager that fills up and
// would be a second storage path to keep in step; the map has one path at
// every fill level and also hands back the occupant's record, where the
// arrays held its key and needed a second lookup. The dense tables live on
// in the tests as the reference model the index is checked against call by
// call (TestSparseMatchesDenseOracle).
package addrman

import (
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"repro/internal/wire"
)

// Table geometry and policy defaults, matching Bitcoin Core.
const (
	// NewBucketCount is the number of buckets in the new table.
	NewBucketCount = 1024
	// TriedBucketCount is the number of buckets in the tried table.
	TriedBucketCount = 256
	// BucketSize is the number of slots per bucket.
	BucketSize = 64

	// DefaultHorizon is how long an address may sit in a table without a
	// successful connection before it counts as terrible. Bitcoin Core uses
	// 30 days; the paper's §V proposes 17 days.
	DefaultHorizon = 30 * 24 * time.Hour

	// retriesBeforeTerrible is the number of failed attempts after which a
	// never-successful address is considered terrible.
	retriesBeforeTerrible = 3
	// maxFailures is the failed-attempt budget within minFailDays for an
	// address that has succeeded before.
	maxFailures = 10
	// minFailWindow is the window over which maxFailures applies.
	minFailWindow = 7 * 24 * time.Hour

	// getAddrMaxPct is the percentage of known addresses returned by
	// GetAddr.
	getAddrMaxPct = 23
	// getAddrMax is the hard cap on addresses returned by GetAddr.
	getAddrMax = 1000
)

// Config controls address manager policy.
type Config struct {
	// Key seeds the bucket placement hashing; two managers with the same
	// key place addresses identically.
	Key uint64
	// Horizon is the eviction age (DefaultHorizon when zero). The paper's
	// §V refinement sets this to 17 days.
	Horizon time.Duration
	// TriedOnlyGetAddr makes GetAddr sample exclusively from the tried
	// table, the paper's §V addressing-protocol refinement.
	TriedOnlyGetAddr bool
	// Now supplies the current time; defaults to time.Now. Simulations
	// inject virtual clocks here.
	Now func() time.Time
	// Rand supplies randomness; defaults to a private source seeded from
	// Key for determinism.
	Rand *rand.Rand
}

// maxNewRefs caps how many new-table slots may reference one address
// (Bitcoin Core's ADDRMAN_NEW_BUCKETS_PER_ADDRESS, 8 there).
const maxNewRefs = 4

// addrInfo is the per-address bookkeeping record.
type addrInfo struct {
	addr     wire.NetAddress
	source   netip.Addr // who told us about this address
	lastTry  time.Time  // last connection attempt
	lastGood time.Time  // last successful connection
	attempts int        // failed attempts since last success
	inTried  bool
	refCount int // number of new-table slots referencing this address
	listPos  int // index in the owning list (newList or triedList)
	// newSlots[:refCount] are the slot keys of this address's new-table
	// references, so clearing them is O(refs) instead of a table scan.
	newSlots [maxNewRefs]uint32
}

// AddrMan is the address manager. It is safe for concurrent use.
type AddrMan struct {
	mu  sync.Mutex
	cfg Config

	info map[netip.AddrPort]*addrInfo

	// slots is both tables: slotKey(table, bucket, slot) → the record
	// occupying that slot, absent when the slot is empty. NewBucketCount,
	// TriedBucketCount and BucketSize are the logical geometry the
	// placement hashes reduce by; storage is proportional to the addresses
	// held, not to the geometry (see the package comment).
	slots map[uint32]*addrInfo

	// newList and triedList hold each table's unique records for O(1)
	// uniform sampling in Select; positions are tracked in addrInfo.
	newList   []*addrInfo
	triedList []*addrInfo

	// pool is GetAddr's candidate scratch, reused across calls.
	pool []*addrInfo

	nNew   int // unique addresses in the new table
	nTried int
}

// slotKey packs a table (0 = new, 1 = tried), bucket and slot into the
// index key: table<<31 | bucket<<6 | slot.
func slotKey(table, bucket, slot int) uint32 {
	return uint32(table)<<31 | uint32(bucket)<<6 | uint32(slot)
}

// listAppend appends info to the given list, recording its position.
func listAppend(list *[]*addrInfo, info *addrInfo) {
	info.listPos = len(*list)
	*list = append(*list, info)
}

// listRemove removes info from list via swap-remove, fixing up the moved
// element's recorded position.
func listRemove(list *[]*addrInfo, info *addrInfo) {
	l := *list
	last := len(l) - 1
	if pos := info.listPos; pos != last {
		l[pos] = l[last]
		l[pos].listPos = pos
	}
	l[last] = nil
	*list = l[:last]
	info.listPos = -1
}

// New creates an address manager with the given configuration.
func New(cfg Config) *AddrMan {
	if cfg.Horizon == 0 {
		cfg.Horizon = DefaultHorizon
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.New(rand.NewSource(int64(cfg.Key) ^ 0x5deece66d))
	}
	return &AddrMan{
		cfg:   cfg,
		info:  make(map[netip.AddrPort]*addrInfo),
		slots: make(map[uint32]*addrInfo),
	}
}

// groupOf maps an address to its network group (a /16 for IPv4, /32 for
// IPv6), the unit Bitcoin Core uses to limit bucket concentration from a
// single network neighbourhood. The group is returned as a packed uint64.
func groupOf(a netip.Addr) uint64 {
	if a.Is4() {
		b := a.As4()
		return 4<<32 | uint64(b[0])<<8 | uint64(b[1])
	}
	b := a.As16()
	return 6<<32 | uint64(b[0])<<24 | uint64(b[1])<<16 |
		uint64(b[2])<<8 | uint64(b[3])
}

// fnvMix folds v into an FNV-1a style accumulator. Bucket placement only
// needs a well-distributed keyed hash, not a cryptographic one (Bitcoin
// Core uses SipHash here for DoS resistance; our threat model is a
// simulation).
func fnvMix(h, v uint64) uint64 {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= prime
	}
	return h
}

// addrKey packs an AddrPort into two uint64 mixing components.
func addrKey(addr netip.AddrPort) (uint64, uint64) {
	b := addr.Addr().As16()
	hi := uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 |
		uint64(b[3])<<32 | uint64(b[4])<<24 | uint64(b[5])<<16 |
		uint64(b[6])<<8 | uint64(b[7])
	lo := uint64(b[8])<<56 | uint64(b[9])<<48 | uint64(b[10])<<40 |
		uint64(b[11])<<32 | uint64(b[12])<<24 | uint64(b[13])<<16 |
		uint64(b[14])<<8 | uint64(b[15])
	return hi, lo ^ uint64(addr.Port())<<48
}

// newBucketFor places an address learned from source into a new-table
// bucket determined by (key, addr group, source group).
func (a *AddrMan) newBucketFor(addr netip.AddrPort, source netip.Addr) int {
	h := fnvMix(0xcbf29ce484222325^a.cfg.Key, 1)
	h = fnvMix(h, groupOf(addr.Addr()))
	h = fnvMix(h, groupOf(source))
	return int(h % NewBucketCount)
}

// triedBucketFor places an address into a tried-table bucket determined by
// (key, full address).
func (a *AddrMan) triedBucketFor(addr netip.AddrPort) int {
	hi, lo := addrKey(addr)
	h := fnvMix(0xcbf29ce484222325^a.cfg.Key, 2)
	h = fnvMix(h, hi)
	h = fnvMix(h, lo)
	return int(h % TriedBucketCount)
}

// slotFor places an address within a bucket of the given table (0 = new,
// 1 = tried).
func (a *AddrMan) slotFor(table int, bucket int, addr netip.AddrPort) int {
	hi, lo := addrKey(addr)
	h := fnvMix(0xcbf29ce484222325^a.cfg.Key, uint64(3+table))
	h = fnvMix(h, uint64(bucket))
	h = fnvMix(h, hi)
	h = fnvMix(h, lo)
	return int(h % BucketSize)
}

// newSlotFor returns the new-table slot key for addr learned from source.
func (a *AddrMan) newSlotFor(addr netip.AddrPort, source netip.Addr) uint32 {
	bucket := a.newBucketFor(addr, source)
	return slotKey(0, bucket, a.slotFor(0, bucket, addr))
}

// triedSlotFor returns the tried-table slot key for addr.
func (a *AddrMan) triedSlotFor(addr netip.AddrPort) uint32 {
	bucket := a.triedBucketFor(addr)
	return slotKey(1, bucket, a.slotFor(1, bucket, addr))
}

// Add records addresses learned from source (typically the peer that sent
// the ADDR message). It returns how many were newly added. Addresses
// already in tried are refreshed but not duplicated.
func (a *AddrMan) Add(addrs []wire.NetAddress, source netip.Addr) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	added := 0
	for i := range addrs {
		if a.addLocked(addrs[i], source) {
			added++
		}
	}
	return added
}

func (a *AddrMan) addLocked(na wire.NetAddress, source netip.Addr) bool {
	key := na.Addr
	if !key.IsValid() || key.Port() == 0 {
		return false
	}
	now := a.cfg.Now()
	info := a.info[key]
	if info != nil {
		// Refresh the advertised timestamp, capped to now (peers routinely
		// advertise future or stale timestamps).
		if na.Timestamp.After(info.addr.Timestamp) && !na.Timestamp.After(now) {
			info.addr.Timestamp = na.Timestamp
		}
		info.addr.Services |= na.Services
		if info.inTried {
			return false
		}
		// Already in new; Bitcoin Core may add another new-table reference
		// from a different source, with decreasing probability.
		if info.refCount >= maxNewRefs || a.cfg.Rand.Intn(1<<info.refCount) != 0 {
			return false
		}
	}

	k := a.newSlotFor(key, source)
	if occ := a.slots[k]; occ != nil {
		// The address already holds this slot, or a healthy incumbent
		// keeps it and the newcomer is dropped; only a terrible occupant
		// is evicted.
		if occ == info || !a.isTerribleLocked(occ, now) {
			return false
		}
		a.removeNewRefLocked(occ, k)
	}
	isNew := info == nil
	if isNew {
		if na.Timestamp.After(now) {
			na.Timestamp = now
		}
		info = &addrInfo{addr: na, source: source}
		a.info[key] = info
		a.nNew++
		listAppend(&a.newList, info)
	}
	a.slots[k] = info
	info.newSlots[info.refCount] = k
	info.refCount++
	return isNew
}

// removeNewRefLocked clears info's new-table reference at slot key k and
// deletes the record entirely when no references remain.
func (a *AddrMan) removeNewRefLocked(info *addrInfo, k uint32) {
	delete(a.slots, k)
	for i := 0; i < info.refCount; i++ {
		if info.newSlots[i] == k {
			info.refCount--
			info.newSlots[i] = info.newSlots[info.refCount]
			break
		}
	}
	if info.refCount == 0 {
		a.nNew--
		listRemove(&a.newList, info)
		delete(a.info, info.addr.Addr)
	}
}

// dropNewRefsLocked clears every new-table reference of info and takes it
// off the new list; the caller moves it to tried or deletes it.
func (a *AddrMan) dropNewRefsLocked(info *addrInfo) {
	for _, k := range info.newSlots[:info.refCount] {
		delete(a.slots, k)
	}
	info.refCount = 0
	a.nNew--
	listRemove(&a.newList, info)
}

// Attempt records a failed or in-progress connection attempt to addr.
func (a *AddrMan) Attempt(addr netip.AddrPort) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if info := a.info[addr]; info != nil {
		info.lastTry = a.cfg.Now()
		info.attempts++
	}
}

// Good marks addr as successfully connected, promoting it from the new
// table to the tried table (possibly evicting a colliding tried entry
// back to new, as Bitcoin Core does).
func (a *AddrMan) Good(addr netip.AddrPort) {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.cfg.Now()
	info := a.info[addr]
	if info == nil {
		// Unknown address connected directly (e.g. a manual peer): track
		// it; it goes straight to tried without a new-table slot.
		info = &addrInfo{addr: wire.NetAddress{Addr: addr}, source: addr.Addr()}
		a.info[addr] = info
	} else if !info.inTried {
		a.dropNewRefsLocked(info)
	}
	info.lastGood = now
	info.lastTry = now
	info.attempts = 0
	info.addr.Timestamp = now
	if info.inTried {
		return
	}

	k := a.triedSlotFor(addr)
	if occ := a.slots[k]; occ != nil {
		// Demote the occupant back into the new table (test-before-evict
		// is approximated by unconditional demotion, Bitcoin Core's
		// pre-feeler behaviour).
		occ.inTried = false
		a.nTried--
		listRemove(&a.triedList, occ)
		a.reinsertIntoNewLocked(occ, now)
	}
	a.slots[k] = info
	info.inTried = true
	a.nTried++
	listAppend(&a.triedList, info)
}

// reinsertIntoNewLocked places a demoted tried record back into the new
// table, dropping it when the target slot holds a healthy incumbent.
func (a *AddrMan) reinsertIntoNewLocked(info *addrInfo, now time.Time) {
	addr := info.addr.Addr
	k := a.newSlotFor(addr, info.source)
	if occ := a.slots[k]; occ != nil {
		if !a.isTerribleLocked(occ, now) {
			delete(a.info, addr)
			return
		}
		a.removeNewRefLocked(occ, k)
	}
	a.slots[k] = info
	info.newSlots[0] = k
	info.refCount = 1
	a.nNew++
	listAppend(&a.newList, info)
}

// isTerribleLocked reports whether an address should be evicted, matching
// Bitcoin Core's IsTerrible with a configurable horizon.
func (a *AddrMan) isTerribleLocked(info *addrInfo, now time.Time) bool {
	if !info.lastTry.IsZero() && now.Sub(info.lastTry) < time.Minute {
		// Tried in the last minute: never consider terrible.
		return false
	}
	ts := info.addr.Timestamp
	if ts.After(now.Add(10 * time.Minute)) {
		return true // timestamp from the future
	}
	if ts.IsZero() || now.Sub(ts) > a.cfg.Horizon {
		return true // not seen within the horizon
	}
	if info.lastGood.IsZero() && info.attempts >= retriesBeforeTerrible {
		return true // never connected despite several attempts
	}
	if !info.lastGood.IsZero() && now.Sub(info.lastGood) > minFailWindow &&
		info.attempts >= maxFailures {
		return true // repeatedly failing recently
	}
	return false
}

// Select picks an address to connect to. With newOnly false it chooses
// between the tried and new tables with equal probability (when both are
// non-empty), then samples within the chosen table — the selection rule
// whose consequences §IV-B measures. It returns the zero value and false
// when no address is available.
func (a *AddrMan) Select(newOnly bool) (wire.NetAddress, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.info) == 0 {
		return wire.NetAddress{}, false
	}
	list := a.newList
	if !newOnly && len(a.triedList) > 0 &&
		(len(a.newList) == 0 || a.cfg.Rand.Intn(2) == 0) {
		list = a.triedList
	}
	if len(list) == 0 {
		return wire.NetAddress{}, false
	}
	return list[a.cfg.Rand.Intn(len(list))].addr, true
}

// GetAddr returns the GETADDR response sample: up to 23% of known
// addresses, capped at 1000. With TriedOnlyGetAddr set (§V refinement) the
// sample comes exclusively from the tried table. The returned slice is the
// caller's and has one spare element of capacity, so a responder can
// prepend its own address without a second allocation.
func (a *AddrMan) GetAddr() []wire.NetAddress {
	a.mu.Lock()
	defer a.mu.Unlock()
	pool := a.pool[:0]
	now := a.cfg.Now()
	// Iterate the lists (deterministic order), not the map: sampling
	// below must be reproducible for a given Rand stream.
	for _, list := range [2][]*addrInfo{a.newList, a.triedList} {
		for _, info := range list {
			if a.cfg.TriedOnlyGetAddr && !info.inTried {
				continue
			}
			if a.isTerribleLocked(info, now) {
				continue
			}
			pool = append(pool, info)
		}
	}
	a.pool = pool
	want := len(a.info) * getAddrMaxPct / 100
	if want > getAddrMax {
		want = getAddrMax
	}
	if want < 1 {
		want = 1
	}
	if want > len(pool) {
		want = len(pool)
	}
	// Partial Fisher-Yates for an unbiased sample.
	out := make([]wire.NetAddress, 0, want+1)
	for i := 0; i < want; i++ {
		j := i + a.cfg.Rand.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
		out = append(out, pool[i].addr)
	}
	return out
}

// Counts returns the number of unique addresses in the new and tried
// tables.
func (a *AddrMan) Counts() (numNew, numTried int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nNew, a.nTried
}

// Size returns the total number of tracked addresses.
func (a *AddrMan) Size() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.info)
}

// InTried reports whether addr currently resides in the tried table.
func (a *AddrMan) InTried(addr netip.AddrPort) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	info := a.info[addr]
	return info != nil && info.inTried
}

// Have reports whether addr is known at all.
func (a *AddrMan) Have(addr netip.AddrPort) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.info[addr] != nil
}
