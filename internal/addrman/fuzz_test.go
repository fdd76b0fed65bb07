package addrman

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"repro/internal/wire"
)

// fuzzConfig returns a deterministic manager config: a fixed key and a
// frozen clock, so bucket placement and staleness decisions never depend
// on the machine running the fuzzer.
func fuzzConfig() Config {
	epoch := time.Unix(1585958400, 0).UTC()
	return Config{
		Key: 0xfeedface,
		Now: func() time.Time { return epoch },
	}
}

// fuzzSeedBlob serializes a populated manager, giving the fuzzer a valid
// starting point to mutate.
func fuzzSeedBlob(f *testing.F) []byte {
	am := New(fuzzConfig())
	src := netip.MustParseAddr("203.0.113.1")
	for i := 0; i < 40; i++ {
		addr := netip.AddrPortFrom(
			netip.AddrFrom4([4]byte{10, 1, byte(i / 256), byte(i%256 + 1)}), 8333)
		am.Add([]wire.NetAddress{{
			Addr:      addr,
			Services:  wire.SFNodeNetwork,
			Timestamp: time.Unix(1585958400, 0).UTC(),
		}}, src)
		if i%3 == 0 {
			am.Attempt(addr)
			am.Good(addr)
		}
	}
	var buf bytes.Buffer
	if err := am.Save(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzPersistLoad feeds arbitrary bytes to the peers.dat loader. The
// invariants: Load never panics on untrusted input, whatever it accepts
// passes check(), and that state survives a Save/Load round trip: same
// table counts, and the second dump equals the first byte for byte (Save
// writes in list order, and a reload under the same key collides nowhere).
func FuzzPersistLoad(f *testing.F) {
	f.Add(fuzzSeedBlob(f))
	f.Add([]byte("ADRM"))
	f.Add([]byte{})
	f.Add([]byte{'A', 'D', 'R', 'M', 1, 0, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		am, err := Load(fuzzConfig(), bytes.NewReader(data))
		if err != nil {
			return // rejecting garbage is correct; panicking is not
		}
		if err := am.check(); err != nil {
			t.Fatalf("loaded state: %v", err)
		}
		newA, triedA := am.Counts()
		var buf bytes.Buffer
		if err := am.Save(&buf); err != nil {
			t.Fatalf("saving loaded state: %v", err)
		}
		am2, err := Load(fuzzConfig(), bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reloading saved state: %v", err)
		}
		if err := am2.check(); err != nil {
			t.Fatalf("reloaded state: %v", err)
		}
		newB, triedB := am2.Counts()
		if newB != newA || triedB != triedA {
			t.Fatalf("round trip changed counts: new %d->%d tried %d->%d",
				newA, newB, triedA, triedB)
		}
		var buf2 bytes.Buffer
		if err := am2.Save(&buf2); err != nil {
			t.Fatalf("saving reloaded state: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("second dump differs from the first")
		}
	})
}
