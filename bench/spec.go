package main

// metricSpec is one metric of the benchmark's contract. BENCHMARK.json
// at the repository root lists the same names, units, directions and
// bounds; bench_test.go checks that the two agree.
type metricSpec struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd is measured with tracing off, on every workload. "rep" is a
// workload's large unit of work and "op" its small one; README.md says
// what each is per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"rep_wall_s.p50", "s", "lower", 0.25},
	{"alloc_mib_per_rep", "MiB", "lower", 0.15},
	{"allocs_per_rep", "count", "lower", 0.15},
	{"peak_rss_mib", "MiB", "lower", 0.25},
	{"op_ms.p50", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
}

// perLayer is reported in traced mode only and carries no bound.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	// Host-time shares from the traced child's CPU profile.
	for _, l := range cpuLayers {
		out = append(out, metricSpec{name: l + ".cpu_share", unit: "ratio", better: "lower"})
	}
	for _, k := range leafKinds {
		out = append(out, metricSpec{name: "leaf." + k + "_share", unit: "ratio", better: "lower"})
	}
	out = append(out,
		// Counts the program already exposes; exact repeat for a seed.
		metricSpec{"simnet.events", "count", "lower", 0},
		metricSpec{"simnet.transmits", "count", "lower", 0},
		metricSpec{"simnet.sched_depth_max", "count", "lower", 0},
		metricSpec{"simnet.event_reuse_ratio", "ratio", "higher", 0},
		metricSpec{"simnet.ns_per_event", "ns", "lower", 0},
		metricSpec{"simnet.bytes_per_event", "B", "lower", 0},
		metricSpec{"node.dial_attempts", "count", "lower", 0},
		metricSpec{"node.dial_success_ratio", "ratio", "higher", 0},
		metricSpec{"node.pings", "count", "lower", 0},
		metricSpec{"chain.blocks_mined", "count", "higher", 0},
		metricSpec{"analysis.relay_observations", "count", "higher", 0},
		metricSpec{"reprod.runs_executed", "count", "lower", 0},
		metricSpec{"reprod.cache_hits", "count", "higher", 0},
		metricSpec{"reprod.cache_misses", "count", "lower", 0},
		metricSpec{"reprod.singleflight_joined", "count", "higher", 0},
		metricSpec{"reprod.shed", "count", "lower", 0},
		metricSpec{"crawler.getaddr_rounds", "count", "lower", 0},
		metricSpec{"crawler.addrs_total", "count", "higher", 0},
		metricSpec{"tcpnet.sessions", "count", "higher", 0},
		// Spans around the benchmark's own calls.
		metricSpec{"core.render_us", "us", "lower", 0},
		metricSpec{"core.csv_us", "us", "lower", 0},
		metricSpec{"core.html_us", "us", "lower", 0},
		metricSpec{"tcpnet.handshake_us", "us", "lower", 0},
		metricSpec{"tcpnet.getaddr_page_us", "us", "lower", 0},
		metricSpec{"reprod.hit_ms.p95", "ms", "lower", 0},
		metricSpec{"reprod.hit_ms.p99", "ms", "lower", 0},
		metricSpec{"trace_overhead_pct", "%", "lower", 0},
	)
	// Isolated probes of each layer's public entry points.
	for _, p := range probes {
		better := "lower"
		if p.name == "par.speedup_x" {
			better = "higher"
		}
		out = append(out, metricSpec{name: p.name, unit: p.unit, better: better})
	}
	return out
}
