package simnet

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/obs"
)

// deadAddrs returns two addresses no host serves: a dial to the first is
// refused after the handshake RTT, a dial to the second times out (the
// fastFailPct split).
func deadAddrs(tb testing.TB) (refused, timeout netip.AddrPort) {
	tb.Helper()
	for i := 1; i < 255; i++ {
		a := addr4(10, 9, 0, byte(i), 8333)
		switch {
		case int(addrHash(a.Addr())%100) < fastFailPct:
			if !refused.IsValid() {
				refused = a
			}
		case !timeout.IsValid():
			timeout = a
		}
		if refused.IsValid() && timeout.IsValid() {
			return refused, timeout
		}
	}
	tb.Fatal("no refusing and timing-out address pair in 10.9.0.0/24")
	return
}

// TestStaleDialResultsDropped dials a refusing address, a timing-out one
// and a live node, and stops (or stops and restarts) the dialer before
// the attempt's next event. On each path the result must never reach a
// node and the live target must never see the connection, while the
// simnet.dial.* counters still tick when the failure is decided, as in a
// dial nobody interrupts. Every attempt ends back on the free list.
func TestStaleDialResultsDropped(t *testing.T) {
	refused, timeout := deadAddrs(t)
	live := addr4(10, 0, 0, 2, 8333)
	paths := []struct {
		name   string
		remote netip.AddrPort
		// the node and simnet counters an undisturbed dial ticks
		nodeCounter, netCounter string
	}{
		{"refused", refused, "node.dial.fail", "simnet.dial.refused"},
		{"timeout", timeout, "node.dial.fail", "simnet.dial.timeout"},
		{"accept", live, "node.dial.success", "simnet.dial.ok"},
	}
	for _, path := range paths {
		for _, mode := range []string{"undisturbed", "stop", "restart"} {
			reg := obs.NewRegistry()
			net := New(Config{Seed: 5, Latency: ConstantLatency(10 * time.Millisecond), Metrics: reg})
			cfg := quietCfg(addr4(10, 0, 0, 1, 8333), nil, -1)
			cfg.Metrics = reg
			dialer := net.AddFullNode(cfg)
			target := net.AddFullNode(quietCfg(live, nil, -1))
			dialer.Start()
			target.Start()

			dialer.Dial(path.remote)
			switch mode {
			case "stop":
				dialer.Stop()
			case "restart":
				dialer.Stop()
				dialer.Start()
			}
			// A failure is counted when the dial decides it, before any
			// event runs; an accept is counted when it happens.
			decided := int64(1)
			if path.name == "accept" {
				decided = 0
			}
			if got := reg.Counter(path.netCounter).Value(); got != decided {
				t.Errorf("%s/%s: %s = %d at the dial, want %d", path.name, mode, path.netCounter, got, decided)
			}
			net.Scheduler().RunFor(10 * time.Second)

			delivered := reg.Counter(path.nodeCounter).Value()
			_, inbound, _ := target.Node().ConnCounts()
			if mode == "undisturbed" {
				if delivered != 1 {
					t.Errorf("%s/%s: %s = %d, want 1", path.name, mode, path.nodeCounter, delivered)
				}
			} else {
				if delivered != 0 || inbound != 0 || len(dialer.links) != 0 {
					t.Errorf("%s/%s: stale result delivered: %s = %d, target inbound %d, dialer links %d",
						path.name, mode, path.nodeCounter, delivered, inbound, len(dialer.links))
				}
				if path.name == "accept" && reg.Counter(path.netCounter).Value() != 0 {
					t.Errorf("%s/%s: a dropped accept step counted %s", path.name, mode, path.netCounter)
				}
			}
			if len(net.freeDials) != 1 {
				t.Errorf("%s/%s: %d attempts on the free list after the run, want 1", path.name, mode, len(net.freeDials))
			}
		}
	}
}
