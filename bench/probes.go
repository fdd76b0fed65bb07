package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"runtime"
	"time"

	"repro/internal/addridx"
	"repro/internal/addrman"
	"repro/internal/analysis"
	"repro/internal/chain"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/estimate"
	"repro/internal/netgen"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/reprod"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/tcpnet"
	"repro/internal/wire"
)

// A probe times one public entry point of one layer in isolation, on
// inputs shaped like the workloads': the median over batches of the
// time of one call. Probes run in their own child process in traced
// mode. They price a layer's entry points; they are not end-to-end
// evidence, and a change is judged on the workloads.
type probe struct {
	name string
	unit string // "ns", "us", "ms" or "x"
	run  func(*probeEnv) (float64, error)
}

// probeEnv carries what probes share.
type probeEnv struct {
	cfg     config
	batches int
	scale   int // divides per-batch iteration counts in smoke mode
	// universe is a small synthetic address universe (scale 0.02, the
	// size the repo's own microbenchmarks use), built on first use.
	universe *netgen.Universe
	// small and large are real bundles, of fig13 and chaos quick.
	small, large *reprod.Bundle
}

// per scales a per-batch iteration count down in smoke mode.
func (e *probeEnv) per(n int) int {
	if n /= e.scale; n < 1 {
		return 1
	}
	return n
}

// time runs e.batches batches of n operations and returns the median
// time of one operation, in seconds. batch performs n operations.
func (e *probeEnv) time(n int, batch func(n int)) float64 {
	n = e.per(n)
	times := make([]float64, e.batches)
	for b := range times {
		begin := time.Now()
		batch(n)
		times[b] = time.Since(begin).Seconds() / float64(n)
	}
	return median(times)
}

func (e *probeEnv) getUniverse() (*netgen.Universe, error) {
	if e.universe == nil {
		u, err := netgen.Generate(netgen.DefaultParams(e.cfg.seed, 0.02))
		if err != nil {
			return nil, err
		}
		e.universe = u
	}
	return e.universe, nil
}

// bundleOf runs an experiment and packs its artifacts the way the
// service does.
func bundleOf(id string, seed int64) (*reprod.Bundle, error) {
	exp, _ := core.ByID(id)
	rep, err := exp.Run(context.Background(), core.Options{Seed: seed, Quick: true, Workers: 1})
	if err != nil {
		return nil, err
	}
	var text, html bytes.Buffer
	if err := rep.Render(&text); err != nil {
		return nil, err
	}
	if err := core.RenderHTMLReport(&html, []*core.Report{rep}); err != nil {
		return nil, err
	}
	csvs, err := rep.CSVFiles()
	if err != nil {
		return nil, err
	}
	spec := reprod.Spec{ID: id, Seed: seed, Quick: true}
	return &reprod.Bundle{Key: spec.Key("probe"), Version: "probe", Spec: spec,
		Report: text.String(), HTML: html.String(), CSV: csvs}, nil
}

func (e *probeEnv) bundles() error {
	if e.small != nil {
		return nil
	}
	var err error
	if e.small, err = bundleOf("fig13", e.cfg.seed); err != nil {
		return err
	}
	e.large, err = bundleOf("chaos", e.cfg.seed)
	return err
}

func addr4(v uint32, port uint16) netip.AddrPort {
	var ip [4]byte
	binary.BigEndian.PutUint32(ip[:], v)
	return netip.AddrPortFrom(netip.AddrFrom4(ip), port)
}

// netAddrs fabricates n distinct addresses starting at base.
func netAddrs(base uint32, n int, at time.Time) []wire.NetAddress {
	out := make([]wire.NetAddress, n)
	for i := range out {
		out[i] = wire.NetAddress{Addr: addr4(base+uint32(i), 8333), Services: wire.SFNodeNetwork, Timestamp: at}
	}
	return out
}

// simTx is a transaction shaped like the ones the relay simulations mint.
func simTx(i uint32) *wire.MsgTx {
	return &wire.MsgTx{
		Version: 2,
		TxIn: []wire.TxIn{{
			PreviousOutPoint: wire.OutPoint{Index: i},
			SignatureScript:  []byte{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)},
			Sequence:         0xffffffff,
		}},
		TxOut: []wire.TxOut{{Value: int64(i)*100 + 1, PkScript: []byte{0x51}}},
	}
}

// simBlock builds a valid block of txs transactions on top of prev.
func simBlock(prev *wire.MsgBlock, height uint32, txs int) *wire.MsgBlock {
	blk := &wire.MsgBlock{Header: wire.BlockHeader{
		Version: 1, PrevBlock: prev.BlockHash(), Timestamp: 1586000000 + height, Bits: 0x207fffff,
	}}
	blk.Transactions = append(blk.Transactions, *simTx(height<<16 | 0xffff))
	for i := 0; i < txs; i++ {
		blk.Transactions = append(blk.Transactions, *simTx(height<<16 | uint32(i)))
	}
	blk.Header.MerkleRoot = chain.BlockMerkleRoot(blk)
	return blk
}

// probeNodeEnv is the node.Env of the node probes: virtual time on a
// simnet scheduler, every transmit consumed on the spot.
type probeNodeEnv struct {
	sched *simnet.Scheduler
	rng   *rand.Rand
	node  *node.Node
}

func (e *probeNodeEnv) Now() time.Time                      { return e.sched.Now() }
func (e *probeNodeEnv) Rand() *rand.Rand                    { return e.rng }
func (e *probeNodeEnv) Schedule(d time.Duration, fn func()) { e.sched.After(d, fn) }
func (e *probeNodeEnv) Dial(netip.AddrPort)                 {}
func (e *probeNodeEnv) Disconnect(node.ConnID)              {}
func (e *probeNodeEnv) Transmit(_ node.ConnID, msg wire.Message, _ time.Duration) {
	e.node.RecycleOutbound(msg)
}

var probeGenesis = chain.GenesisBlock("bench-probes")

func probeNodeConfig(self uint32, at time.Time) node.Config {
	return node.Config{
		Self:          wire.NetAddress{Addr: addr4(self, 8333), Services: wire.SFNodeNetwork},
		Reachable:     true,
		Genesis:       probeGenesis,
		CompactBlocks: true,
		SeedAddrs:     netAddrs(0x0b000000, 64, at),
	}
}

// newProbeNode starts a node with 8 handshaken inbound peers, the
// outbound degree of a simulated node.
func newProbeNode() (*probeNodeEnv, error) {
	env := &probeNodeEnv{
		sched: simnet.NewScheduler(time.Unix(1586000000, 0).UTC()),
		rng:   rand.New(rand.NewSource(1)),
	}
	env.node = node.New(probeNodeConfig(0x0a000001, env.Now()), env)
	env.node.Start()
	for i := 0; i < 8; i++ {
		conn := node.ConnID(i + 1)
		if !env.node.OnInbound(addr4(0x0a000100+uint32(i), 8333), conn) {
			return nil, fmt.Errorf("probe node refused inbound peer %d", i)
		}
		env.node.OnMessage(conn, &wire.MsgVersion{ProtocolVersion: wire.ProtocolVersion,
			Timestamp: env.Now(), UserAgent: "/probe/", Relay: true})
		env.node.OnMessage(conn, &wire.MsgVerAck{})
	}
	env.sched.RunFor(time.Second)
	return env, nil
}

// roundTrip times encode plus decode of msg through a held codec pair.
func roundTrip(e *probeEnv, n int, msg wire.Message) (float64, error) {
	var enc wire.Encoder
	var dec wire.Decoder
	var buf bytes.Buffer
	var err error
	once := func() {
		buf.Reset()
		if _, werr := enc.WriteMessage(&buf, msg, wire.SimNet); werr != nil {
			err = werr
		}
		if _, rerr := dec.ReadMessage(&buf, wire.SimNet); rerr != nil {
			err = rerr
		}
	}
	once() // warm the codec's scratch buffers
	sec := e.time(n, func(n int) {
		for i := 0; i < n; i++ {
			once()
		}
	})
	return sec, err
}

var probes = []probe{
	{"simnet.sched_ns_per_event", "ns", func(e *probeEnv) (float64, error) {
		// One pop and one push per event, at the heap depth the workload
		// reached (10 000 when it ran no simulation).
		depth := e.cfg.depth
		if depth <= 0 {
			depth = 10000
		}
		s := simnet.NewScheduler(time.Unix(0, 0))
		for i := 0; i < depth; i++ {
			s.After(10000*time.Hour+time.Duration(i), func() {})
		}
		var tick func()
		tick = func() { s.After(time.Millisecond, tick) }
		s.After(0, tick)
		return 1e9 * e.time(50000, func(n int) { s.RunFor(time.Duration(n) * time.Millisecond) }), nil
	}},
	{"node.new_us", "us", func(e *probeEnv) (float64, error) {
		env := &probeNodeEnv{sched: simnet.NewScheduler(time.Unix(1586000000, 0)), rng: rand.New(rand.NewSource(1))}
		cfg := probeNodeConfig(0x0a000001, env.Now())
		return 1e6 * e.time(10, func(n int) {
			for i := 0; i < n; i++ {
				env.node = node.New(cfg, env)
			}
		}), nil
	}},
	{"node.on_inv_ns", "ns", func(e *probeEnv) (float64, error) {
		env, err := newProbeNode()
		if err != nil {
			return 0, err
		}
		inv := &wire.MsgInv{}
		inv.InvList = []wire.InvVect{{Type: wire.InvTypeTx}}
		var k uint64
		return 1e9 * e.time(2000, func(n int) {
			for i := 0; i < n; i++ {
				k++
				binary.LittleEndian.PutUint64(inv.InvList[0].Hash[:], k)
				env.node.OnMessage(node.ConnID(k%8+1), inv)
				env.sched.RunFor(10 * time.Millisecond)
			}
		}), nil
	}},
	{"node.on_tx_us", "us", func(e *probeEnv) (float64, error) {
		env, err := newProbeNode()
		if err != nil {
			return 0, err
		}
		var k uint32
		return 1e6 * e.time(1000, func(n int) {
			for i := 0; i < n; i++ {
				k++
				env.node.OnMessage(node.ConnID(k%8+1), simTx(k))
				env.sched.RunFor(10 * time.Millisecond)
			}
		}), nil
	}},
	{"node.on_addr1000_us", "us", func(e *probeEnv) (float64, error) {
		env, err := newProbeNode()
		if err != nil {
			return 0, err
		}
		var k uint32
		return 1e6 * e.time(5, func(n int) {
			for i := 0; i < n; i++ {
				k++
				msg := &wire.MsgAddr{AddrList: netAddrs(0x0c000000+k*1000, 1000, env.Now())}
				env.node.OnMessage(1, msg)
				env.sched.RunFor(10 * time.Millisecond)
			}
		}), nil
	}},
	{"chain.mempool_add_ns", "ns", func(e *probeEnv) (float64, error) {
		pool := chain.NewMempool()
		var k uint32
		return 1e9 * e.time(2000, func(n int) {
			for i := 0; i < n; i++ {
				k++
				pool.Add(simTx(k))
			}
		}), nil
	}},
	{"chain.accept_block_us", "us", func(e *probeEnv) (float64, error) {
		// Blocks of 150 transactions, the quick relay experiments' size.
		per := e.per(10)
		blocks := make([]*wire.MsgBlock, e.batches*per)
		prev := probeGenesis
		for i := range blocks {
			blocks[i] = simBlock(prev, uint32(i+1), 150)
			prev = blocks[i]
		}
		c := chain.New(probeGenesis)
		var err error
		next := 0
		sec := e.time(10, func(n int) {
			for i := 0; i < n; i++ {
				if _, aerr := c.Accept(blocks[next]); aerr != nil {
					err = aerr
				}
				next++
			}
		})
		return 1e6 * sec, err
	}},
	{"wire.txhash_ns", "ns", func(e *probeEnv) (float64, error) {
		tx := simTx(7)
		return 1e9 * e.time(5000, func(n int) {
			for i := 0; i < n; i++ {
				tx.LockTime = uint32(i)
				_ = tx.TxHash()
			}
		}), nil
	}},
	{"wire.roundtrip_inv_ns", "ns", func(e *probeEnv) (float64, error) {
		inv := &wire.MsgInv{}
		inv.InvList = []wire.InvVect{{Type: wire.InvTypeTx}}
		sec, err := roundTrip(e, 5000, inv)
		return 1e9 * sec, err
	}},
	{"wire.roundtrip_tx_ns", "ns", func(e *probeEnv) (float64, error) {
		sec, err := roundTrip(e, 5000, simTx(7))
		return 1e9 * sec, err
	}},
	{"wire.roundtrip_cmpct_us", "us", func(e *probeEnv) (float64, error) {
		sec, err := roundTrip(e, 200, chain.BuildCompactBlock(simBlock(probeGenesis, 1, 150), 42))
		return 1e6 * sec, err
	}},
	{"wire.roundtrip_addr1000_us", "us", func(e *probeEnv) (float64, error) {
		sec, err := roundTrip(e, 50, &wire.MsgAddr{AddrList: netAddrs(0x0b000000, 1000, time.Unix(1586000000, 0))})
		return 1e6 * sec, err
	}},
	{"addrman.new_us", "us", func(e *probeEnv) (float64, error) {
		var am *addrman.AddrMan
		sec := e.time(20, func(n int) {
			for i := 0; i < n; i++ {
				am = addrman.New(addrman.Config{Key: uint64(i)})
			}
		})
		runtime.KeepAlive(am)
		return 1e6 * sec, nil
	}},
	{"addrman.add_ns", "ns", func(e *probeEnv) (float64, error) {
		now := time.Unix(1586000000, 0)
		am := addrman.New(addrman.Config{Key: 1, Now: func() time.Time { return now }})
		src := netip.AddrFrom4([4]byte{9, 9, 9, 9})
		one := make([]wire.NetAddress, 1)
		var k uint32
		return 1e9 * e.time(2000, func(n int) {
			for i := 0; i < n; i++ {
				k++
				one[0] = wire.NetAddress{Addr: addr4(0x0b000000+k*7, 8333), Timestamp: now}
				am.Add(one, src)
			}
		}), nil
	}},
	{"addrman.select_ns", "ns", func(e *probeEnv) (float64, error) {
		am := filledAddrMan()
		return 1e9 * e.time(5000, func(n int) {
			for i := 0; i < n; i++ {
				am.Select(false)
			}
		}), nil
	}},
	{"addrman.getaddr_us", "us", func(e *probeEnv) (float64, error) {
		am := filledAddrMan()
		return 1e6 * e.time(20, func(n int) {
			for i := 0; i < n; i++ {
				am.GetAddr()
			}
		}), nil
	}},
	{"obs.tracer_emit_ns", "ns", func(e *probeEnv) (float64, error) {
		// A relay hop as the node emits it: span keys derived per event.
		now := time.Unix(1586000000, 0)
		tr := obs.NewTracer(obs.DefaultTraceCapacity, func() time.Time { return now })
		self, peer := addr4(0x0a000001, 8333), addr4(0x0a000002, 8333)
		hash := make([]byte, 32)
		return 1e9 * e.time(5000, func(n int) {
			for i := 0; i < n; i++ {
				hash[0] = byte(i)
				tr.Emit(obs.Event{Kind: obs.KindDeliverBlock, From: peer, To: self, Detail: "deadbeef01020304",
					Span: obs.SpanKey(self, hash), Parent: obs.SpanKey(peer, hash)})
			}
		}), nil
	}},
	{"obs.proptree_feed_ns", "ns", func(e *probeEnv) (float64, error) {
		pt := obs.NewPropagationTree()
		self, peer := addr4(0x0a000001, 8333), addr4(0x0a000002, 8333)
		at := time.Unix(1586000000, 0)
		var k uint64
		return 1e9 * e.time(5000, func(n int) {
			for i := 0; i < n; i++ {
				k++
				pt.Feed(obs.Event{Time: at, Kind: obs.KindDeliverTx, From: peer, To: self, Span: k, Parent: k - 1})
				pt.Feed(obs.Event{Time: at, Kind: obs.KindRelayTx, From: self, To: peer, Parent: k, Dur: time.Millisecond})
			}
		}) / 2, nil
	}},
	{"obs.sampler_tick_us", "us", func(e *probeEnv) (float64, error) {
		// A registry the size of a relay simulation's: ~40 series.
		reg := obs.NewRegistry()
		for i := 0; i < 30; i++ {
			reg.Counter(fmt.Sprintf("probe.counter.%02d", i)).Add(int64(i))
		}
		for i := 0; i < 4; i++ {
			reg.Gauge(fmt.Sprintf("probe.gauge.%d", i)).Set(int64(i))
			h := reg.Histogram(fmt.Sprintf("probe.hist.%d", i))
			for v := int64(1); v <= 500; v++ {
				h.Observe(v * int64(time.Millisecond))
			}
		}
		s := obs.NewSampler(reg, 0)
		now := time.Unix(1586000000, 0)
		return 1e6 * e.time(200, func(n int) {
			for i := 0; i < n; i++ {
				now = now.Add(2 * time.Minute)
				s.Tick(now)
			}
		}), nil
	}},
	{"netgen.universe_build_ms", "ms", func(e *probeEnv) (float64, error) {
		var err error
		sec := e.time(1, func(n int) {
			for i := 0; i < n; i++ {
				if _, gerr := netgen.Generate(netgen.DefaultParams(e.cfg.seed+int64(i), 0.02)); gerr != nil {
					err = gerr
				}
			}
		})
		return 1e3 * sec, err
	}},
	{"netgen.addrbook_us", "us", func(e *probeEnv) (float64, error) {
		u, err := e.getUniverse()
		if err != nil {
			return 0, err
		}
		at := u.Params.Epoch.Add(10 * 24 * time.Hour)
		online, visible := u.OnlineReachable(at), u.VisibleUnreachable(at)
		if len(online) == 0 {
			return 0, fmt.Errorf("probe universe has no online station")
		}
		var k int
		return 1e6 * e.time(50, func(n int) {
			for i := 0; i < n; i++ {
				k++
				u.AddrBookFrom(online[k%len(online)], at, online, visible)
			}
		}), nil
	}},
	{"addridx.lookup_ns", "ns", func(e *probeEnv) (float64, error) {
		rng := rand.New(rand.NewSource(e.cfg.seed))
		addrs := make([]netip.AddrPort, 1<<16)
		for i := range addrs {
			addrs[i] = addr4(rng.Uint32(), uint16(1024+rng.Intn(60000)))
		}
		idx, err := addridx.Build(addrs)
		if err != nil {
			return 0, err
		}
		var k int
		return 1e9 * e.time(20000, func(n int) {
			for i := 0; i < n; i++ {
				k++
				idx.Lookup(addrs[k&(1<<16-1)])
			}
		}), nil
	}},
	{"crawler.snapshot_ms", "ms", func(e *probeEnv) (float64, error) {
		u, err := e.getUniverse()
		if err != nil {
			return 0, err
		}
		at := u.Params.Epoch.Add(10 * 24 * time.Hour)
		seeds := u.SeedViewAt(at)
		targets, known := crawler.TargetsOf(seeds), crawler.ReachableReference(seeds)
		sec := e.time(3, func(n int) {
			for i := 0; i < n; i++ {
				c := crawler.New(crawler.Config{Index: u.Index, Workers: 1}, crawler.NewUniverseView(u, at))
				if _, cerr := c.Crawl(context.Background(), at, targets, known); cerr != nil {
					err = cerr
				}
			}
		})
		return 1e3 * sec, err
	}},
	{"crawler.scan_ms", "ms", func(e *probeEnv) (float64, error) {
		u, err := e.getUniverse()
		if err != nil {
			return 0, err
		}
		at := u.Params.Epoch.Add(10 * 24 * time.Hour)
		view := crawler.NewUniverseView(u, at)
		var targets []netip.AddrPort
		for _, s := range u.Unreachable {
			if s.VisibleAt(at) {
				targets = append(targets, s.Addr)
			}
		}
		sec := e.time(3, func(n int) {
			for i := 0; i < n; i++ {
				if _, serr := crawler.ScanWith(context.Background(), crawler.ScanConfig{Workers: 1}, at, view, targets); serr != nil {
					err = serr
				}
			}
		})
		return 1e3 * sec, err
	}},
	{"estimate.update_ns", "ns", func(e *probeEnv) (float64, error) {
		// One 100-address ADDR page through the full collector.
		const sources, perPage = 64, 100
		pages := make([][]wire.NetAddress, sources)
		for s := range pages {
			pages[s] = netAddrs(0x0b000000+uint32(s*61%4096), perPage, time.Time{})
		}
		c := estimate.NewCollector(estimate.Config{})
		var k int
		return 1e9 * e.time(500, func(n int) {
			for i := 0; i < n; i++ {
				k++
				c.Exchange(addr4(0x0a000000+uint32(k%sources), 8333), pages[k%sources])
			}
		}), nil
	}},
	{"churn.matrix_ms", "ms", func(e *probeEnv) (float64, error) {
		u, err := e.getUniverse()
		if err != nil {
			return 0, err
		}
		return 1e3 * e.time(2, func(n int) {
			for i := 0; i < n; i++ {
				churn.FromUniverse(u, 24*time.Hour)
			}
		}), nil
	}},
	{"stats.kde_ms", "ms", func(e *probeEnv) (float64, error) {
		rng := rand.New(rand.NewSource(e.cfg.seed))
		xs := make([]float64, 2000)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		grid := stats.Grid(-4, 4, 256)
		var err error
		sec := e.time(2, func(n int) {
			for i := 0; i < n; i++ {
				k, kerr := stats.NewKDE(xs, 0)
				if kerr != nil {
					err = kerr
					return
				}
				k.Evaluate(grid)
			}
		})
		return 1e3 * sec, err
	}},
	{"par.speedup_x", "x", func(e *probeEnv) (float64, error) {
		// One reduced crawl study at Workers:1 over the same at
		// Workers:nproc. analysis.RunCrawlSeries is called directly
		// because core memoises the study per (seed, scale).
		study := func(workers int) (float64, error) {
			cfg := analysis.CrawlSeriesConfig{
				Params:      netgen.DefaultParams(e.cfg.seed, 0.03),
				Experiments: 8, ScannerStartExperiment: 2, ScanSampleFraction: 1, Workers: workers,
			}
			if e.cfg.smoke {
				cfg.Params = netgen.DefaultParams(e.cfg.seed, 0.005)
				cfg.Experiments = 3
			}
			begin := time.Now()
			_, err := analysis.RunCrawlSeries(context.Background(), cfg)
			return time.Since(begin).Seconds(), err
		}
		var one, all []float64
		for i := 0; i < (e.batches+3)/4; i++ {
			a, err := study(1)
			if err != nil {
				return 0, err
			}
			b, err := study(runtime.GOMAXPROCS(0))
			if err != nil {
				return 0, err
			}
			one, all = append(one, a), append(all, b)
		}
		return median(one) / median(all), nil
	}},
	{"reprod.spec_key_ns", "ns", func(e *probeEnv) (float64, error) {
		spec := reprod.Spec{ID: "fig13", Quick: true}
		return 1e9 * e.time(5000, func(n int) {
			for i := 0; i < n; i++ {
				spec.Seed = int64(i)
				_ = spec.Key("probe")
			}
		}), nil
	}},
	{"reprod.admission_ns", "ns", func(e *probeEnv) (float64, error) {
		adm := reprod.NewAdmission(2, 64, obs.NewRegistry())
		ctx := context.Background()
		var err error
		sec := e.time(5000, func(n int) {
			for i := 0; i < n; i++ {
				release, aerr := adm.Acquire(ctx)
				if aerr != nil {
					err = aerr
					return
				}
				release()
			}
		})
		return 1e9 * sec, err
	}},
	{"reprod.cache_put_ms", "ms", func(e *probeEnv) (float64, error) {
		cache, cleanup, err := e.probeCache()
		if err != nil {
			return 0, err
		}
		defer cleanup()
		b := *e.small
		var k int
		sec := e.time(5, func(n int) {
			for i := 0; i < n; i++ {
				k++
				b.Key = fmt.Sprintf("%064x", k)
				if perr := cache.Put(&b); perr != nil {
					err = perr
				}
			}
		})
		return 1e3 * sec, err
	}},
	{"reprod.cache_get_us_small", "us", func(e *probeEnv) (float64, error) { return e.cacheGet(false) }},
	{"reprod.cache_get_us_large", "us", func(e *probeEnv) (float64, error) { return e.cacheGet(true) }},
	{"reprod.cold_overhead_ms", "ms", func(e *probeEnv) (float64, error) {
		// The service's own cost on a cold run: cold POST /run through the
		// handler (no network) minus running and rendering the same specs
		// directly.
		if err := os.MkdirAll(e.cfg.tmp, 0o755); err != nil {
			return 0, err
		}
		dir, err := os.MkdirTemp(e.cfg.tmp, "probe-cold-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		srv, err := reprod.New(reprod.Config{CacheDir: dir, MaxQueue: 64})
		if err != nil {
			return 0, err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Drain(ctx) // teardown only
		}()
		exp, _ := core.ByID("fig13")
		spans := newSpanLog()
		var cold, direct []float64
		for i := 0; i < e.batches; i++ {
			seed := e.cfg.seed%1_000_000*1000 + int64(i) + 1
			if seed < 1 {
				seed = int64(i) + 1
			}
			body, _ := json.Marshal(reprod.Spec{ID: "fig13", Seed: seed, Quick: true, Workers: 1})
			rec := httptest.NewRecorder()
			begin := time.Now()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
			cold = append(cold, time.Since(begin).Seconds())
			if rec.Code != http.StatusOK {
				return 0, fmt.Errorf("cold POST /run: status %d", rec.Code)
			}
			begin = time.Now()
			rep, err := exp.Run(context.Background(), core.Options{Seed: seed, Quick: true, Workers: 1})
			if err != nil {
				return 0, err
			}
			if _, err := renderBundle(spans, rep, i); err != nil {
				return 0, err
			}
			direct = append(direct, time.Since(begin).Seconds())
		}
		return 1e3 * (median(cold) - median(direct)), nil
	}},
	{"tcpnet.probe_us", "us", func(e *probeEnv) (float64, error) {
		// The scanner's common case: the endpoint accepts and closes.
		stub, err := tcpnet.NewResponsiveStub("127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer stub.Close()
		prober := &tcpnet.Prober{}
		sec := e.time(20, func(n int) {
			for i := 0; i < n; i++ {
				if _, perr := prober.Probe(stub.Addr()); perr != nil {
					err = perr
				}
			}
		})
		return 1e6 * sec, err
	}},
}

// filledAddrMan returns an address manager holding 5 000 addresses, a
// long-running simulated node's table.
func filledAddrMan() *addrman.AddrMan {
	now := time.Unix(1586000000, 0)
	am := addrman.New(addrman.Config{Key: 1, Now: func() time.Time { return now }})
	am.Add(netAddrs(0x0b000000, 5000, now), netip.AddrFrom4([4]byte{9, 9, 9, 9}))
	return am
}

// probeCache opens a cache in a fresh directory.
func (e *probeEnv) probeCache() (*reprod.Cache, func(), error) {
	if err := e.bundles(); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(e.cfg.tmp, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(e.cfg.tmp, "probe-cache-")
	if err != nil {
		return nil, nil, err
	}
	cache, err := reprod.OpenCache(dir, obs.NewRegistry())
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return cache, func() { os.RemoveAll(dir) }, nil
}

// cacheGet times Cache.Get of a small (fig13) or a large (chaos) bundle.
func (e *probeEnv) cacheGet(large bool) (float64, error) {
	cache, cleanup, err := e.probeCache()
	if err != nil {
		return 0, err
	}
	defer cleanup()
	b := e.small
	if large {
		b = e.large
	}
	if err := cache.Put(b); err != nil {
		return 0, err
	}
	per := 200
	if large {
		per = 20
	}
	sec := e.time(per, func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := cache.Get(b.Key); !ok {
				err = fmt.Errorf("cache lost bundle %s", b.Key)
			}
		}
	})
	return 1e6 * sec, err
}

// runProbes runs every probe and publishes its metric.
func runProbes(cfg config, out metrics) error {
	env := &probeEnv{cfg: cfg, batches: 20, scale: 1}
	if cfg.smoke {
		env.batches, env.scale = 3, 20
	}
	for _, p := range probes {
		v, err := p.run(env)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		out.set(p.name, v, p.unit, env.batches)
	}
	return nil
}
