package addrman

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"time"

	"repro/internal/wire"
)

// Serialization of the address manager — the peers.dat equivalent. A
// restarting node reloads its tables, which is how the §IV-B stale-tried
// situation arises in practice: the serialized tried table outlives the
// peers it describes.
//
// Format (little-endian): magic "ADRM", u16 version, u32 count, then per
// address: 16-byte IP, u16 port, u64 services, 16-byte source IP,
// i64 timestamp, i64 lastTry, i64 lastGood (unix seconds; 0 = zero time),
// u32 attempts, u8 inTried. Records are written in sampling-list order, new
// table first, so one state has one serialization; Load accepts any order.

const (
	persistMagic   = "ADRM"
	persistVersion = 1
	// maxPersistEntries bounds allocation when loading untrusted files.
	maxPersistEntries = 1 << 22
)

// Save writes the manager's state to w.
func (a *AddrMan) Save(w io.Writer) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return fmt.Errorf("addrman: write magic: %w", err)
	}
	var hdr [6]byte
	binary.LittleEndian.PutUint16(hdr[0:2], persistVersion)
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(len(a.newList)+len(a.triedList)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("addrman: write header: %w", err)
	}
	// Records go out in list order (new, then tried), so a given state has
	// one serialization and Load's collision drops do not depend on map
	// iteration order.
	var rec [16 + 2 + 8 + 16 + 8 + 8 + 8 + 4 + 1]byte
	for _, list := range [2][]*addrInfo{a.newList, a.triedList} {
		for _, info := range list {
			ip := info.addr.Addr.Addr().As16()
			copy(rec[0:16], ip[:])
			binary.LittleEndian.PutUint16(rec[16:18], info.addr.Addr.Port())
			binary.LittleEndian.PutUint64(rec[18:26], uint64(info.addr.Services))
			src := info.source.As16()
			copy(rec[26:42], src[:])
			binary.LittleEndian.PutUint64(rec[42:50], uint64(unixOrZero(info.addr.Timestamp)))
			binary.LittleEndian.PutUint64(rec[50:58], uint64(unixOrZero(info.lastTry)))
			binary.LittleEndian.PutUint64(rec[58:66], uint64(unixOrZero(info.lastGood)))
			binary.LittleEndian.PutUint32(rec[66:70], uint32(info.attempts))
			if info.inTried {
				rec[70] = 1
			} else {
				rec[70] = 0
			}
			if _, err := bw.Write(rec[:]); err != nil {
				return fmt.Errorf("addrman: write record: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("addrman: flush: %w", err)
	}
	return nil
}

// unixOrZero maps the zero time to 0 rather than a negative epoch.
func unixOrZero(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.Unix()
}

// timeOrZero is the inverse of unixOrZero.
func timeOrZero(v int64) time.Time {
	if v == 0 {
		return time.Time{}
	}
	return time.Unix(v, 0).UTC()
}

// Load reconstructs a manager from r using cfg (the cfg.Key governs
// bucket placement, exactly as a fresh manager would place the same
// addresses). Entries colliding on full buckets are dropped, as on a real
// reload.
func Load(cfg Config, r io.Reader) (*AddrMan, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("addrman: read magic: %w", err)
	}
	if string(magic) != persistMagic {
		return nil, fmt.Errorf("addrman: bad magic %q", magic)
	}
	var hdr [6]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("addrman: read header: %w", err)
	}
	if v := binary.LittleEndian.Uint16(hdr[0:2]); v != persistVersion {
		return nil, fmt.Errorf("addrman: unsupported version %d", v)
	}
	count := binary.LittleEndian.Uint32(hdr[2:6])
	if count > maxPersistEntries {
		return nil, fmt.Errorf("addrman: %d entries exceeds limit", count)
	}

	am := New(cfg)
	var rec [71]byte
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("addrman: read record %d: %w", i, err)
		}
		var ip16 [16]byte
		copy(ip16[:], rec[0:16])
		ip := netip.AddrFrom16(ip16)
		if ip.Is4In6() {
			ip = ip.Unmap()
		}
		port := binary.LittleEndian.Uint16(rec[16:18])
		key := netip.AddrPortFrom(ip, port)
		if !key.IsValid() || port == 0 {
			continue
		}
		var src16 [16]byte
		copy(src16[:], rec[26:42])
		src := netip.AddrFrom16(src16)
		if src.Is4In6() {
			src = src.Unmap()
		}
		info := &addrInfo{
			addr: wire.NetAddress{
				Addr:      key,
				Services:  wire.ServiceFlag(binary.LittleEndian.Uint64(rec[18:26])),
				Timestamp: timeOrZero(int64(binary.LittleEndian.Uint64(rec[42:50]))),
			},
			source:   src,
			lastTry:  timeOrZero(int64(binary.LittleEndian.Uint64(rec[50:58]))),
			lastGood: timeOrZero(int64(binary.LittleEndian.Uint64(rec[58:66]))),
			attempts: int(binary.LittleEndian.Uint32(rec[66:70])),
			inTried:  rec[70] == 1,
		}
		am.restoreLocked(key, info)
	}
	return am, nil
}

// restoreLocked places a deserialized record into the tables, dropping it
// on collision with an incumbent.
func (a *AddrMan) restoreLocked(key netip.AddrPort, info *addrInfo) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.info[key]; dup {
		return
	}
	if info.inTried {
		k := a.triedSlotFor(key)
		if a.slots[k] == nil {
			a.info[key] = info
			a.slots[k] = info
			a.nTried++
			listAppend(&a.triedList, info)
			return
		}
		// Collision: demote this record to the new table instead.
		info.inTried = false
	}
	k := a.newSlotFor(key, info.source)
	if a.slots[k] != nil {
		return // occupied; drop, as Bitcoin Core does on reload collisions
	}
	a.info[key] = info
	a.slots[k] = info
	info.newSlots[0] = k
	info.refCount = 1
	a.nNew++
	listAppend(&a.newList, info)
}
