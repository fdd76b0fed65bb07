package addrman

import "fmt"

// check verifies every structural invariant of the manager, in the manner
// of Bitcoin Core's AddrManImpl::Check(): the slot index, the per-record
// reference lists, the key map, the sampling lists and the counters must
// all describe the same state. It is O(addresses held) and lives in the
// tests; the oracle, invariant and fuzz tests call it after mutations.
func (a *AddrMan) check() error {
	a.mu.Lock()
	defer a.mu.Unlock()

	// Index → records: every entry points at a live record that belongs
	// in exactly that slot.
	newRefs := 0
	for k, info := range a.slots {
		if info == nil {
			return fmt.Errorf("slot %#x holds a nil record", k)
		}
		key := info.addr.Addr
		if a.info[key] != info {
			return fmt.Errorf("slot %#x holds %v, which is not the live record for that address", k, key)
		}
		table, bucket, slot := int(k>>31), int(k>>6&(1<<25-1)), int(k&(BucketSize-1))
		if table == 1 {
			if !info.inTried {
				return fmt.Errorf("tried slot %#x holds new-table record %v", k, key)
			}
			if want := a.triedSlotFor(key); want != k {
				return fmt.Errorf("%v sits in tried slot %#x, hashes to %#x", key, k, want)
			}
			continue
		}
		newRefs++
		if info.inTried {
			return fmt.Errorf("new slot %#x holds tried record %v", k, key)
		}
		// The bucket of a reference depends on the source that gossiped
		// it, which is not kept; the slot within the bucket is recomputable.
		if bucket >= NewBucketCount {
			return fmt.Errorf("new slot %#x: bucket %d out of range", k, bucket)
		}
		if want := a.slotFor(0, bucket, key); want != slot {
			return fmt.Errorf("%v sits in new bucket %d slot %d, hashes to slot %d", key, bucket, slot, want)
		}
		found := false
		for _, ref := range info.newSlots[:info.refCount] {
			found = found || ref == k
		}
		if !found {
			return fmt.Errorf("new slot %#x holds %v, which does not list it", k, key)
		}
	}

	// Records → index and lists.
	sumRefs := 0
	for key, info := range a.info {
		if info.addr.Addr != key {
			return fmt.Errorf("record for %v filed under %v", info.addr.Addr, key)
		}
		if info.inTried {
			if info.refCount != 0 {
				return fmt.Errorf("%v in tried with refCount %d", key, info.refCount)
			}
			if a.slots[a.triedSlotFor(key)] != info {
				return fmt.Errorf("%v marked tried but absent from its slot", key)
			}
			if p := info.listPos; p < 0 || p >= len(a.triedList) || a.triedList[p] != info {
				return fmt.Errorf("%v: listPos %d is not its place in triedList", key, p)
			}
			continue
		}
		if info.refCount < 1 || info.refCount > maxNewRefs {
			return fmt.Errorf("%v in new with refCount %d", key, info.refCount)
		}
		sumRefs += info.refCount
		for i, ref := range info.newSlots[:info.refCount] {
			if a.slots[ref] != info {
				return fmt.Errorf("%v lists new slot %#x, which it does not occupy", key, ref)
			}
			for _, other := range info.newSlots[:i] {
				if other == ref {
					return fmt.Errorf("%v lists new slot %#x twice", key, ref)
				}
			}
		}
		if p := info.listPos; p < 0 || p >= len(a.newList) || a.newList[p] != info {
			return fmt.Errorf("%v: listPos %d is not its place in newList", key, p)
		}
	}

	// Counters.
	if newRefs != sumRefs {
		return fmt.Errorf("%d occupied new slots, records list %d references", newRefs, sumRefs)
	}
	if a.nNew != len(a.newList) || a.nTried != len(a.triedList) {
		return fmt.Errorf("counters %d/%d, list lengths %d/%d",
			a.nNew, a.nTried, len(a.newList), len(a.triedList))
	}
	if a.nNew+a.nTried != len(a.info) {
		return fmt.Errorf("counters %d+%d, %d records", a.nNew, a.nTried, len(a.info))
	}
	if len(a.slots) != a.nTried+sumRefs {
		return fmt.Errorf("%d index entries, want %d tried + %d new references",
			len(a.slots), a.nTried, sumRefs)
	}
	return nil
}
