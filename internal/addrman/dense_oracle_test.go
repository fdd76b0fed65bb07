package addrman

// The dense-array address manager this package used until the sparse slot
// index replaced it, kept as the reference model for
// TestSparseMatchesDenseOracle. The code is the old addrman.go with the
// types renamed (AddrMan → denseAddrMan, addrInfo → denseInfo, New →
// newDense). Constants, Config and the free hashing helpers (groupOf,
// fnvMix, addrKey) are shared with the package.

import (
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"repro/internal/wire"
)

// denseInfo is the per-address bookkeeping record.
type denseInfo struct {
	addr     wire.NetAddress
	source   netip.Addr // who told us about this address
	lastTry  time.Time  // last connection attempt
	lastGood time.Time  // last successful connection
	attempts int        // failed attempts since last success
	inTried  bool
	refCount int // number of new-table slots referencing this address
	listPos  int // index in the owning key list (newList or triedList)
	// newSlots records the (bucket, slot) locations of this address's
	// new-table references, so clearing them is O(refs) instead of a
	// scan over every bucket.
	newSlots [][2]int16
}

// denseAddrMan is the address manager. It is safe for concurrent use.
type denseAddrMan struct {
	mu  sync.Mutex
	cfg Config

	info map[netip.AddrPort]*denseInfo

	// newTable[bucket][slot] and triedTable[bucket][slot] hold address
	// keys; the zero AddrPort marks an empty slot.
	newTable   [NewBucketCount][BucketSize]netip.AddrPort
	triedTable [TriedBucketCount][BucketSize]netip.AddrPort

	// newList and triedList hold the unique keys of each table for O(1)
	// uniform sampling in Select; positions are tracked in denseInfo.
	newList   []netip.AddrPort
	triedList []netip.AddrPort

	nNew   int // occupied new-table slots referencing unique addresses
	nTried int
}

// listAppend appends key to the given list, recording its position.
func (a *denseAddrMan) listAppend(list *[]netip.AddrPort, key netip.AddrPort, info *denseInfo) {
	info.listPos = len(*list)
	*list = append(*list, key)
}

// listRemove removes the entry at info.listPos from list via swap-remove,
// fixing up the moved element's recorded position.
func (a *denseAddrMan) listRemove(list *[]netip.AddrPort, info *denseInfo) {
	l := *list
	pos := info.listPos
	last := len(l) - 1
	if pos != last {
		moved := l[last]
		l[pos] = moved
		if mi := a.info[moved]; mi != nil {
			mi.listPos = pos
		}
	}
	*list = l[:last]
	info.listPos = -1
}

// New creates an address manager with the given configuration.
func newDense(cfg Config) *denseAddrMan {
	if cfg.Horizon == 0 {
		cfg.Horizon = DefaultHorizon
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.New(rand.NewSource(int64(cfg.Key) ^ 0x5deece66d))
	}
	return &denseAddrMan{
		cfg:  cfg,
		info: make(map[netip.AddrPort]*denseInfo),
	}
}

// newBucketFor places an address learned from source into a new-table
// bucket determined by (key, addr group, source group).
func (a *denseAddrMan) newBucketFor(addr netip.AddrPort, source netip.Addr) int {
	h := fnvMix(0xcbf29ce484222325^a.cfg.Key, 1)
	h = fnvMix(h, groupOf(addr.Addr()))
	h = fnvMix(h, groupOf(source))
	return int(h % NewBucketCount)
}

// triedBucketFor places an address into a tried-table bucket determined by
// (key, full address).
func (a *denseAddrMan) triedBucketFor(addr netip.AddrPort) int {
	hi, lo := addrKey(addr)
	h := fnvMix(0xcbf29ce484222325^a.cfg.Key, 2)
	h = fnvMix(h, hi)
	h = fnvMix(h, lo)
	return int(h % TriedBucketCount)
}

// slotFor places an address within a bucket of the given table (0 = new,
// 1 = tried).
func (a *denseAddrMan) slotFor(table int, bucket int, addr netip.AddrPort) int {
	hi, lo := addrKey(addr)
	h := fnvMix(0xcbf29ce484222325^a.cfg.Key, uint64(3+table))
	h = fnvMix(h, uint64(bucket))
	h = fnvMix(h, hi)
	h = fnvMix(h, lo)
	return int(h % BucketSize)
}

// Add records addresses learned from source (typically the peer that sent
// the ADDR message). It returns how many were newly added. Addresses
// already in tried are refreshed but not duplicated.
func (a *denseAddrMan) Add(addrs []wire.NetAddress, source netip.Addr) int {
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
func (a *denseAddrMan) addLocked(na wire.NetAddress, source netip.Addr) bool {
	key := na.Addr
	if !key.IsValid() || key.Port() == 0 {
		return false
	}
	now := a.cfg.Now()
	info, exists := a.info[key]
	if exists {
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
		if info.refCount >= 4 || a.cfg.Rand.Intn(1<<info.refCount) != 0 {
			return false
		}
	} else {
		if na.Timestamp.After(now) {
			na.Timestamp = now
		}
		info = &denseInfo{addr: na, source: source}
		a.info[key] = info
	}

	bucket := a.newBucketFor(key, source)
	slot := a.slotFor(0, bucket, key)
	occupant := a.newTable[bucket][slot]
	if occupant == key {
		return !exists
	}
	if occupant.IsValid() {
		// Evict the occupant if it is terrible; otherwise the incumbent
		// stays and the newcomer is dropped unless it has no other slot.
		occInfo := a.info[occupant]
		if occInfo != nil && a.isTerribleLocked(occInfo, now) {
			a.removeNewRefLocked(occupant, bucket, slot)
		} else {
			if !exists {
				// Keep the map entry only if it got a slot somewhere.
				delete(a.info, key)
			}
			return false
		}
	}
	a.newTable[bucket][slot] = key
	info.refCount++
	info.newSlots = append(info.newSlots, [2]int16{int16(bucket), int16(slot)})
	if info.refCount == 1 && !info.inTried {
		a.nNew++
		a.listAppend(&a.newList, key, info)
	}
	return !exists
}

// removeNewRefLocked clears one new-table reference of addr and deletes
// the record entirely when no references remain.
func (a *denseAddrMan) removeNewRefLocked(addr netip.AddrPort, bucket, slot int) {
	a.newTable[bucket][slot] = netip.AddrPort{}
	info := a.info[addr]
	if info == nil {
		return
	}
	info.refCount--
	for i, bs := range info.newSlots {
		if int(bs[0]) == bucket && int(bs[1]) == slot {
			info.newSlots[i] = info.newSlots[len(info.newSlots)-1]
			info.newSlots = info.newSlots[:len(info.newSlots)-1]
			break
		}
	}
	if info.refCount <= 0 && !info.inTried {
		a.listRemove(&a.newList, info)
		delete(a.info, addr)
		a.nNew--
	}
}

// Attempt records a failed or in-progress connection attempt to addr.
func (a *denseAddrMan) Attempt(addr netip.AddrPort) {
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
func (a *denseAddrMan) Good(addr netip.AddrPort) {
	a.mu.Lock()
	defer a.mu.Unlock()
	info := a.info[addr]
	if info == nil {
		// Unknown address connected directly (e.g. a manual peer): track it.
		info = &denseInfo{
			addr:   wire.NetAddress{Addr: addr, Timestamp: a.cfg.Now()},
			source: addr.Addr(),
		}
		a.info[addr] = info
		a.nNew++
		info.refCount = 1
		a.listAppend(&a.newList, addr, info)
	}
	now := a.cfg.Now()
	info.lastGood = now
	info.lastTry = now
	info.attempts = 0
	info.addr.Timestamp = now
	if info.inTried {
		return
	}
	// Clear all new-table references via their recorded locations.
	for _, bs := range info.newSlots {
		if a.newTable[bs[0]][bs[1]] == addr {
			a.newTable[bs[0]][bs[1]] = netip.AddrPort{}
		}
	}
	info.newSlots = nil
	info.refCount = 0
	a.nNew--
	a.listRemove(&a.newList, info)

	bucket := a.triedBucketFor(addr)
	slot := a.slotFor(1, bucket, addr)
	if occupant := a.triedTable[bucket][slot]; occupant.IsValid() && occupant != addr {
		// Demote the occupant back into the new table (test-before-evict
		// is approximated by unconditional demotion, Bitcoin Core's
		// pre-feeler behaviour).
		if occInfo := a.info[occupant]; occInfo != nil {
			occInfo.inTried = false
			a.nTried--
			a.listRemove(&a.triedList, occInfo)
			a.reinsertIntoNewLocked(occupant, occInfo)
		}
	}
	a.triedTable[bucket][slot] = addr
	info.inTried = true
	a.nTried++
	a.listAppend(&a.triedList, addr, info)
}

// reinsertIntoNewLocked places a demoted tried address back into the new
// table, dropping it when the target slot holds a healthy incumbent.
func (a *denseAddrMan) reinsertIntoNewLocked(addr netip.AddrPort, info *denseInfo) {
	bucket := a.newBucketFor(addr, info.source)
	slot := a.slotFor(0, bucket, addr)
	occupant := a.newTable[bucket][slot]
	if occupant.IsValid() && occupant != addr {
		occInfo := a.info[occupant]
		if occInfo == nil || !a.isTerribleLocked(occInfo, a.cfg.Now()) {
			delete(a.info, addr)
			return
		}
		a.removeNewRefLocked(occupant, bucket, slot)
	}
	a.newTable[bucket][slot] = addr
	info.refCount = 1
	info.newSlots = append(info.newSlots[:0], [2]int16{int16(bucket), int16(slot)})
	a.nNew++
	a.listAppend(&a.newList, addr, info)
}

// isTerribleLocked reports whether an address should be evicted, matching
// Bitcoin Core's IsTerrible with a configurable horizon.
func (a *denseAddrMan) isTerribleLocked(info *denseInfo, now time.Time) bool {
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

// IsTerrible reports whether addr is currently eligible for eviction.
func (a *denseAddrMan) IsTerrible(addr netip.AddrPort) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	info := a.info[addr]
	if info == nil {
		return false
	}
	return a.isTerribleLocked(info, a.cfg.Now())
}

// Select picks an address to connect to. With newOnly false it chooses
// between the tried and new tables with equal probability (when both are
// non-empty), then samples within the chosen table — the selection rule
// whose consequences §IV-B measures. It returns the zero value and false
// when no address is available.
func (a *denseAddrMan) Select(newOnly bool) (wire.NetAddress, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.info) == 0 {
		return wire.NetAddress{}, false
	}
	useTried := !newOnly && len(a.triedList) > 0 &&
		(len(a.newList) == 0 || a.cfg.Rand.Intn(2) == 0)
	var list []netip.AddrPort
	if useTried {
		list = a.triedList
	} else {
		list = a.newList
	}
	if len(list) == 0 {
		return wire.NetAddress{}, false
	}
	key := list[a.cfg.Rand.Intn(len(list))]
	info := a.info[key]
	if info == nil {
		return wire.NetAddress{}, false
	}
	return info.addr, true
}

// GetAddr returns the GETADDR response sample: up to 23% of known
// addresses, capped at 1000. With TriedOnlyGetAddr set (§V refinement) the
// sample comes exclusively from the tried table.
func (a *denseAddrMan) GetAddr() []wire.NetAddress {
	a.mu.Lock()
	defer a.mu.Unlock()
	pool := make([]*denseInfo, 0, len(a.info))
	now := a.cfg.Now()
	// Iterate the key lists (deterministic order), not the map: sampling
	// below must be reproducible for a given Rand stream.
	for _, list := range [][]netip.AddrPort{a.newList, a.triedList} {
		for _, key := range list {
			info := a.info[key]
			if info == nil {
				continue
			}
			if a.cfg.TriedOnlyGetAddr && !info.inTried {
				continue
			}
			if a.isTerribleLocked(info, now) {
				continue
			}
			pool = append(pool, info)
		}
	}
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
	out := make([]wire.NetAddress, 0, want)
	for i := 0; i < want; i++ {
		j := i + a.cfg.Rand.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
		out = append(out, pool[i].addr)
	}
	return out
}

// Counts returns the number of unique addresses in the new and tried
// tables.
func (a *denseAddrMan) Counts() (numNew, numTried int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nNew, a.nTried
}

// Size returns the total number of tracked addresses.
func (a *denseAddrMan) Size() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.info)
}

// InTried reports whether addr currently resides in the tried table.
func (a *denseAddrMan) InTried(addr netip.AddrPort) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	info := a.info[addr]
	return info != nil && info.inTried
}

// Have reports whether addr is known at all.
func (a *denseAddrMan) Have(addr netip.AddrPort) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.info[addr] != nil
}
