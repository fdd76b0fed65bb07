package faults

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// The chaos suite is the tentpole acceptance test: a network subjected to
// message loss, latency spikes, duplication, a partition with heal, and a
// crash/restart wave must re-converge — every surviving full node reaches
// IsSynced at the miner's tip within bounded virtual time — and the same
// seed must reproduce the identical fault schedule, event trace, and
// counters.

// chaosResult captures everything a same-seed rerun must reproduce.
type chaosResult struct {
	heights  []int32
	synced   []bool
	tipMatch []bool
	trace    []TraceEvent
	digest   string
	counters []obs.NamedValue
}

// runChaosScenario drives the full scenario at the given seed:
//   - 10 full nodes in a mesh, node 0 mining one block per minute;
//   - 5% drop / 5% spike / 2% duplication on every link from the start;
//   - minutes 5–10: partition 6 nodes (with the miner) from the other 4;
//   - minute 12: crash wave takes nodes 7 and 8 down for 3 minutes;
//   - minute 20: faults off (clean tail); mining stops after minute 24;
//   - minute 35: measure.
func runChaosScenario(t *testing.T, seed int64) chaosResult {
	t.Helper()
	net := simnet.New(simnet.Config{Seed: seed})
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.DefaultTraceCapacity, net.Now)
	inj := New(net, Config{Seed: seed, Metrics: reg, Tracer: tracer, Default: Profile{
		Drop:      0.05,
		Spike:     0.05,
		SpikeMin:  200 * time.Millisecond,
		SpikeMax:  2 * time.Second,
		Duplicate: 0.02,
	}})
	addrs := buildMesh(net, 10)
	miner := addrs[0]
	sched := net.Scheduler()

	const lastBlockMinute = 24
	mined := 0
	var mine func()
	mine = func() {
		if h := net.Host(miner); h.Online() && h.Node() != nil {
			_, _ = h.Node().MineBlock(0)
		}
		mined++
		if mined < lastBlockMinute {
			sched.After(time.Minute, mine)
		}
	}
	sched.After(time.Minute, mine)

	inj.SchedulePartition(5*time.Minute, 5*time.Minute, addrs[:6], addrs[6:])
	inj.CrashWave(addrs[7:9], 12*time.Minute, 3*time.Minute, 30*time.Second)
	sched.After(20*time.Minute, func() { inj.SetEnabled(false) })

	sched.RunFor(35 * time.Minute)

	tip, wantHeight := net.Host(miner).Node().Chain().Tip()
	res := chaosResult{
		trace:    tracer.Events(),
		digest:   tracer.Digest(),
		counters: reg.Snapshot().Counters,
	}
	for _, a := range addrs {
		h := net.Host(a)
		if !h.Online() || h.Node() == nil {
			t.Fatalf("host %v offline at scenario end", a)
		}
		nodeTip, height := h.Node().Chain().Tip()
		res.heights = append(res.heights, height)
		res.synced = append(res.synced, h.Node().IsSynced())
		res.tipMatch = append(res.tipMatch, nodeTip == tip)
	}
	if wantHeight < lastBlockMinute-2 {
		t.Fatalf("miner only reached height %d; the scenario barely mined", wantHeight)
	}
	return res
}

func TestChaosNetworkReconverges(t *testing.T) {
	res := runChaosScenario(t, 1001)
	for i, h := range res.heights {
		if h != res.heights[0] || !res.tipMatch[i] {
			t.Errorf("node %d: height %d, tipMatch=%v — network did not converge (heights %v)",
				i, h, res.tipMatch[i], res.heights)
		}
		if !res.synced[i] {
			t.Errorf("node %d: IsSynced() = false after recovery window", i)
		}
	}
	// The scenario must actually have exercised the fault machinery.
	c := make(map[string]int64, len(res.counters))
	for _, ctr := range res.counters {
		c[ctr.Name] = ctr.Value
	}
	for _, name := range []string{
		"faults.transmit.dropped", "faults.transmit.spiked",
		"faults.transmit.duplicated", "faults.transmit.blocked",
		"faults.partition", "faults.heal", "faults.crash", "faults.restart",
	} {
		if c[name] == 0 {
			t.Errorf("counter %q = 0 — scenario never exercised it", name)
		}
	}
	if c["faults.crash"] != 2 || c["faults.restart"] != 2 {
		t.Errorf("crash/restart = %d/%d, want 2/2",
			c["faults.crash"], c["faults.restart"])
	}
}

func TestChaosScenarioIsSeedReproducible(t *testing.T) {
	a := runChaosScenario(t, 7_777)
	b := runChaosScenario(t, 7_777)
	if !reflect.DeepEqual(a.trace, b.trace) {
		t.Error("same-seed runs produced different fault traces")
	}
	if a.digest != b.digest {
		t.Errorf("same-seed runs produced different trace digests: %s vs %s",
			a.digest, b.digest)
	}
	if !reflect.DeepEqual(a.counters, b.counters) {
		t.Error("same-seed runs produced different counters")
	}
	if !reflect.DeepEqual(a.heights, b.heights) {
		t.Errorf("same-seed runs produced different heights: %v vs %v",
			a.heights, b.heights)
	}
	c := runChaosScenario(t, 7_778)
	if reflect.DeepEqual(a.trace, c.trace) {
		t.Error("different seeds produced the identical fault trace")
	}
	if a.digest == c.digest {
		t.Error("different seeds produced the identical trace digest")
	}
}

// TestChaosRecoveryFromBlackholedMiner pins the keepalive path end to
// end: the miner's routes are black-holed mid-run, its peers' pings go
// unanswered, and after restore the network (including the miner's
// backlog of solo-mined blocks) converges.
func TestChaosRecoveryFromBlackholedMiner(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 55})
	inj := New(net, Config{Seed: 55})
	reg := obs.NewRegistry()
	addrs := buildMeteredMesh(net, 6, reg)
	miner := addrs[0]
	sched := net.Scheduler()

	stop := false
	var mine func()
	mine = func() {
		if stop {
			return
		}
		if h := net.Host(miner); h.Online() && h.Node() != nil {
			_, _ = h.Node().MineBlock(0)
		}
		sched.After(time.Minute, mine)
	}
	sched.After(time.Minute, mine)

	sched.After(4*time.Minute, func() { inj.Blackhole(miner.Addr()) })
	sched.After(10*time.Minute, func() { inj.Restore(miner.Addr()) })
	sched.After(16*time.Minute, func() { stop = true })
	sched.RunFor(25 * time.Minute)

	tip, minerHeight := net.Host(miner).Node().Chain().Tip()
	if minerHeight < 10 {
		t.Fatalf("miner height = %d, want at least 10", minerHeight)
	}
	for _, a := range addrs[1:] {
		nodeTip, h := net.Host(a).Node().Chain().Tip()
		if nodeTip != tip || h != minerHeight {
			t.Errorf("node %v at height %d (want %d, tip match %v) after restore",
				a, h, minerHeight, nodeTip == tip)
		}
	}
	// During the blackhole the peers' keepalives went unanswered; pings
	// must have been sent (the stall timeout is longer than the outage,
	// so eviction is not required — recovery through the healed link is).
	if reg.Counter("node.ping.sent").Value() == 0 {
		t.Error("no keepalive pings sent across the blackhole window")
	}
}
