package estimate

import (
	"encoding/binary"
	"math"
	"net/netip"
	"testing"
	"time"

	"repro/internal/wire"
)

// FuzzEstimateObservations feeds arbitrary observation streams —
// malformed timestamps, duplicate and self-referential announcements,
// zero-length rounds, nonsense counts — through the full Collector and
// asserts the package contract: never panic, and every estimate stays
// finite and non-negative at every step.
func FuzzEstimateObservations(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 3, 10, 11, 12, 2, 0, 1, 10, 10})         // dup + zero round
	f.Add([]byte{5, 2, 5, 5, 5, 1, 5})                       // self-referential
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 0}) // garbage timestamps
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCollector(Config{
			// Odd low bytes are "reachable": exercises the filter.
			IsReachable: func(a netip.AddrPort) bool { return a.Addr().As4()[3]%2 == 1 },
		})
		check := func() {
			if v := c.PopulationEstimate(); !isFiniteNonNeg(v) {
				t.Fatalf("population estimate %v not finite non-negative", v)
			}
			for _, sd := range c.Deg.Estimates() {
				if !isFiniteNonNeg(sd.Estimate) || !isFiniteNonNeg(sd.Ratio) {
					t.Fatalf("source %v estimates %v/%v not finite non-negative",
						sd.Source, sd.Estimate, sd.Ratio)
				}
			}
		}
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		for pos < len(data) {
			src := eAddr(int(next()))
			n := int(next()) % 40 // zero-length rounds included
			addrs := make([]wire.NetAddress, 0, n)
			for i := 0; i < n; i++ {
				// Timestamps assembled from raw bytes: negative epochs,
				// far-future values, whatever the fuzzer finds.
				var raw [8]byte
				raw[0], raw[7] = next(), next()
				ts := time.Unix(int64(binary.LittleEndian.Uint64(raw[:])), 0)
				addrs = append(addrs, wire.NetAddress{Addr: eAddr(int(next())), Timestamp: ts})
			}
			c.Exchange(src, addrs)
			check()
		}
		check()
		// The raw inversion must hold the contract on arbitrary float
		// pairs reconstructed from the input too.
		if len(data) >= 16 {
			d := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
			tt := math.Float64frombits(binary.LittleEndian.Uint64(data[8:16]))
			if v := InvertRecurrence(d, tt); !isFiniteNonNeg(v) {
				t.Fatalf("InvertRecurrence(%v, %v) = %v", d, tt, v)
			}
		}
	})
}
