package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file turns a runtime/pprof CPU profile into per-layer host-time
// shares. It decodes the few fields of the gzipped profile.proto it
// needs (samples, locations, functions, strings) with a small std-only
// protobuf reader, so the benchmark depends on neither the toolchain
// at run time nor a module outside the standard library.

// profSample is one distinct stack, leaf frame first, with the number
// of profiler ticks that hit it and their weight in CPU nanoseconds.
type profSample struct {
	stack []string
	ticks int64
	value int64
}

// pbuf is a protobuf wire-format cursor.
type pbuf []byte

var errTruncated = errors.New("cpuprof: truncated profile")

func (b *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(*b) == 0 {
			return 0, errTruncated
		}
		c := (*b)[0]
		*b = (*b)[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("cpuprof: varint overflows 64 bits")
}

// field reads one field: its number, and either its varint value
// (wire type 0) or its bytes (wire type 2). Fixed-width fields are
// skipped and reported as wire type 1 or 5 with no payload.
func (b *pbuf) field() (num int, wire int, val uint64, data []byte, err error) {
	key, err := b.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val, err = b.varint()
	case 1, 5:
		n := 8
		if wire == 5 {
			n = 4
		}
		if len(*b) < n {
			return 0, 0, 0, nil, errTruncated
		}
		*b = (*b)[n:]
	case 2:
		var n uint64
		if n, err = b.varint(); err != nil {
			break
		}
		if uint64(len(*b)) < n {
			return 0, 0, 0, nil, errTruncated
		}
		data, *b = (*b)[:n], (*b)[n:]
	default:
		err = fmt.Errorf("cpuprof: unsupported wire type %d", wire)
	}
	return num, wire, val, data, err
}

// repeated appends the values of a repeated integer field, which the
// encoder may have packed into one length-delimited blob.
func repeated(dst []uint64, wire int, val uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	p := pbuf(data)
	for len(p) > 0 {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// decodeProfile parses a gzipped pprof profile into stacks of function
// names. Inlined frames are expanded, innermost first.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpuprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpuprof: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var samples []rawSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string index
	var strs []string

	top := pbuf(raw)
	for len(top) > 0 {
		num, _, _, data, err := top.field()
		if err != nil {
			return nil, err
		}
		msg := pbuf(data)
		switch num {
		case 2: // Sample
			var s rawSample
			for len(msg) > 0 {
				n, w, v, d, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = repeated(s.locs, w, v, d)
				case 2:
					s.values, err = repeated(s.values, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			for len(msg) > 0 {
				n, _, v, d, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					line := pbuf(d)
					for len(line) > 0 {
						ln, _, lv, _, err := line.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case 5: // Function
			var id, name uint64
			for len(msg) > 0 {
				n, _, v, _, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}

	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		// runtime/pprof writes two values per sample: ticks, then CPU ns.
		ps := profSample{ticks: int64(s.values[0]), value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// repoLayers are this repository's packages a CPU sample can be charged
// to by name.
var repoLayers = []string{
	"simnet", "node", "chain", "chainhash", "wire", "addrman", "obs",
	"analysis", "netgen", "crawler", "addridx", "estimate", "churn",
	"stats", "par", "core", "reprod", "tcpnet",
}

// cpuLayers adds "other" for a repo package not listed (asmap, faults,
// or one a later change adds), "runtime_bg" for stacks with no repo
// frame at all (GC workers, scheduler), and "harness" for the
// benchmark's own load generator.
var cpuLayers = append(append([]string(nil), repoLayers...), "other", "runtime_bg", "harness")

const repoPrefix = "repro/internal/"

// layerOf charges a stack to the layer of its innermost repo frame, so
// a layer's share is its self time plus the Go-runtime and crypto time
// it called. A server-side net/http stack that has not reached a repo
// handler yet is the service's own HTTP front and is charged to
// reprod; client-side net/http and the benchmark's functions are the
// harness.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			pkg := rest[:strings.IndexAny(rest+".", "./")]
			for _, l := range repoLayers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
	}
	harness := false
	for _, fn := range stack {
		if fn == "net/http.(*conn).serve" {
			return "reprod"
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/bench.") ||
			strings.HasPrefix(fn, "net/http.") || strings.HasPrefix(fn, "testing.") {
			harness = true
		}
	}
	if harness {
		return "harness"
	}
	return "runtime_bg"
}

// leafKinds are the cross-layer costs of the second cut.
var leafKinds = []string{"gc", "malloc", "map", "sha256", "syscall"}

// leafOf classifies a stack by the first frame, from the leaf outward,
// that belongs to one of the cross-layer costs; "" when none does. An
// allocation that assists the collector therefore counts as gc, and a
// map growth that allocates counts as malloc.
func leafOf(stack []string) string {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gc"), strings.HasPrefix(fn, "runtime.scan"),
			strings.HasPrefix(fn, "runtime.markroot"), strings.HasPrefix(fn, "runtime.greyobject"),
			strings.HasPrefix(fn, "runtime.bgsweep"), strings.HasPrefix(fn, "runtime.bgscavenge"),
			strings.HasPrefix(fn, "runtime.sweepone"), strings.HasPrefix(fn, "runtime.(*sweepLocked)"),
			strings.HasPrefix(fn, "runtime.wbBufFlush"), strings.HasPrefix(fn, "runtime.(*gcWork)"):
			return "gc"
		case fn == "runtime.mallocgc", fn == "runtime.newobject", fn == "runtime.growslice",
			strings.HasPrefix(fn, "runtime.makeslice"), strings.HasPrefix(fn, "runtime.mallocgc"),
			strings.HasPrefix(fn, "runtime.(*mcache)"), strings.HasPrefix(fn, "runtime.(*mcentral)"):
			return "malloc"
		case strings.HasPrefix(fn, "runtime.map"), strings.HasPrefix(fn, "internal/runtime/maps."):
			return "map"
		case strings.Contains(fn, "sha256"):
			return "sha256"
		case strings.HasPrefix(fn, "syscall."), strings.HasPrefix(fn, "internal/runtime/syscall."),
			strings.HasPrefix(fn, "runtime/internal/syscall."):
			return "syscall"
		}
	}
	return ""
}

// cpuShares folds a profile into "<layer>.cpu_share" (summing to 1) and
// "leaf.<kind>_share" metrics. With no samples every share is 0 except
// harness, which takes the whole so the shares still sum to 1.
func cpuShares(samples []profSample, out metrics) {
	layer := map[string]int64{}
	leaf := map[string]int64{}
	var total, ticks int64
	for _, s := range samples {
		total += s.value
		ticks += s.ticks
		layer[layerOf(s.stack)] += s.value
		if k := leafOf(s.stack); k != "" {
			leaf[k] += s.value
		}
	}
	if total == 0 {
		layer["harness"], total = 1, 1
	}
	for _, l := range cpuLayers {
		out.set(l+".cpu_share", float64(layer[l])/float64(total), "ratio", int(ticks))
	}
	for _, k := range leafKinds {
		out.set("leaf."+k+"_share", float64(leaf[k])/float64(total), "ratio", int(ticks))
	}
}
