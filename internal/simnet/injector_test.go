package simnet

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// scriptInjector is a minimal Injector for plumbing tests.
type scriptInjector struct {
	dial     func(from, to netip.AddrPort) DialVerdict
	transmit func(from, to netip.AddrPort, msg wire.Message) TransmitVerdict
}

func (s *scriptInjector) FilterDial(from, to netip.AddrPort) DialVerdict {
	if s.dial == nil {
		return DialProceed
	}
	return s.dial(from, to)
}

func (s *scriptInjector) FilterTransmit(from, to netip.AddrPort, msg wire.Message) TransmitVerdict {
	if s.transmit == nil {
		return TransmitVerdict{}
	}
	return s.transmit(from, to, msg)
}

// dialOutcomes returns a tracer that hands fn every node dial event: the
// dialer, the target, and the outcome (the dial error's text, or "ok").
func dialOutcomes(fn func(from, to netip.AddrPort, detail string)) *obs.Tracer {
	tr := obs.NewTracer(0, nil)
	tr.AddStream(func(ev *obs.Event) {
		if ev.Kind == "dial" {
			fn(ev.From, ev.To, ev.Detail)
		}
	})
	return tr
}

// TestFastFailSplitIsPerAddress pins the intentional semantics of
// Config.FastFailPct: whether a dial to a dead address fails fast
// (refused) or slow (timeout) is a property of the target address alone,
// so every dialer observes the same failure mode for a given address.
func TestFastFailSplitIsPerAddress(t *testing.T) {
	net := newTestNet(11)
	dialerA := addr4(10, 0, 0, 1, 8333)
	dialerB := addr4(10, 0, 0, 2, 8333)

	// A handful of dead targets exercises both sides of the split.
	var deads []netip.AddrPort
	for i := byte(1); i <= 8; i++ {
		deads = append(deads, addr4(172, 16, 0, i, 8333))
	}

	// dialer -> target -> the dial trace's outcome (error text or "ok")
	outcome := make(map[netip.AddrPort]map[netip.AddrPort]string)
	tracer := dialOutcomes(func(from, to netip.AddrPort, detail string) {
		outcome[from][to] = detail
	})
	for _, self := range []netip.AddrPort{dialerA, dialerB} {
		outcome[self] = make(map[netip.AddrPort]string)
		cfg := nodeCfg(self, seedsOf(net.Now(), deads...))
		cfg.Tracer = tracer
		cfg.MaxFeelers = -1
		net.AddFullNode(cfg).Start()
	}
	net.Scheduler().RunFor(2 * time.Minute)

	var fast, slow int
	for _, target := range deads {
		errA, okA := outcome[dialerA][target]
		errB, okB := outcome[dialerB][target]
		if !okA || !okB {
			continue // not every address is necessarily dialed by both
		}
		if errA != errB {
			t.Errorf("target %v: dialer A saw %q, dialer B saw %q — split must be per-address",
				target, errA, errB)
		}
		refused := errA == ErrRefused.Error()
		if !refused && errA != ErrTimeout.Error() {
			t.Errorf("target %v: dial outcome %q, want refused or timeout", target, errA)
		}
		want := int(addrHash(target.Addr())%100) < fastFailPct
		if refused != want {
			t.Errorf("target %v: refused=%v, want %v from addrHash split", target, refused, want)
		}
		if refused {
			fast++
		} else {
			slow++
		}
	}
	if fast == 0 || slow == 0 {
		t.Logf("split coverage: fast=%d slow=%d (want both >0 for a thorough pin)", fast, slow)
	}
}

func TestInjectorDialVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name    string
		verdict DialVerdict
		wantErr error
	}{
		{"block", DialBlock, ErrTimeout},
		{"refuse", DialRefuse, ErrRefused},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := newTestNet(21)
			a := addr4(10, 0, 0, 1, 8333)
			b := addr4(10, 0, 0, 2, 8333)
			net.SetInjector(&scriptInjector{
				dial: func(from, to netip.AddrPort) DialVerdict { return tc.verdict },
			})
			net.AddFullNode(nodeCfg(b, nil)).Start()
			ha := net.AddFullNode(nodeCfg(a, seedsOf(net.Now(), b)))
			var got string
			cfg := ha.Config()
			cfg.Tracer = dialOutcomes(func(_, to netip.AddrPort, detail string) {
				if to == b && got == "" {
					got = detail
				}
			})
			ha.SetConfig(cfg)
			ha.Start()
			net.Scheduler().RunFor(30 * time.Second)
			if got != tc.wantErr.Error() {
				t.Fatalf("dial outcome = %q, want %q", got, tc.wantErr)
			}
		})
	}
}

func TestInjectorTransmitDropBlocksHandshake(t *testing.T) {
	net := newTestNet(22)
	a := addr4(10, 0, 0, 1, 8333)
	b := addr4(10, 0, 0, 2, 8333)
	dropped := 0
	net.SetInjector(&scriptInjector{
		transmit: func(from, to netip.AddrPort, msg wire.Message) TransmitVerdict {
			dropped++
			return TransmitVerdict{Drop: true}
		},
	})
	hb := net.AddFullNode(nodeCfg(b, nil))
	ha := net.AddFullNode(nodeCfg(a, seedsOf(net.Now(), b)))
	hb.Start()
	ha.Start()
	net.Scheduler().RunFor(30 * time.Second)
	if dropped == 0 {
		t.Fatal("injector never consulted on transmit")
	}
	// With every message dropped the VERSION never arrives: the link
	// exists but no handshake completes, so no addrman promotion.
	if ha.Node().AddrMan().InTried(b) {
		t.Error("handshake completed despite all messages dropped")
	}
}

func TestInjectorTransmitDuplicateAndDelay(t *testing.T) {
	net := newTestNet(23)
	a := addr4(10, 0, 0, 1, 8333)
	b := addr4(10, 0, 0, 2, 8333)
	net.SetInjector(&scriptInjector{
		transmit: func(from, to netip.AddrPort, msg wire.Message) TransmitVerdict {
			if _, ok := msg.(*wire.MsgVersion); ok {
				return TransmitVerdict{
					ExtraDelay:     200 * time.Millisecond,
					Duplicate:      true,
					DuplicateDelay: 50 * time.Millisecond,
				}
			}
			return TransmitVerdict{}
		},
	})
	hb := net.AddFullNode(nodeCfg(b, nil))
	ha := net.AddFullNode(nodeCfg(a, seedsOf(net.Now(), b)))
	hb.Start()
	ha.Start()
	net.Scheduler().RunFor(30 * time.Second)
	// Duplicated VERSION messages are ignored as duplicates by the
	// handler; the handshake must still complete despite delay + dup.
	outA, _, _ := ha.Node().ConnCounts()
	if outA != 1 {
		t.Fatalf("outbound = %d, want 1 (handshake must survive dup/delay)", outA)
	}
}

func TestBlackholeStubStallsDialer(t *testing.T) {
	net := newTestNet(24)
	a := addr4(10, 0, 0, 1, 8333)
	hole := addr4(10, 7, 7, 7, 8333)
	net.AddBlackholeStub(hole).Start()
	ha := net.AddFullNode(nodeCfg(a, seedsOf(net.Now(), hole)))
	var dialOK bool
	cfg := ha.Config()
	cfg.MaxFeelers = -1
	cfg.Tracer = dialOutcomes(func(_, to netip.AddrPort, detail string) {
		if to == hole && detail == "ok" {
			dialOK = true
		}
	})
	ha.SetConfig(cfg)
	ha.Start()
	// Short of the 60 s handshake timeout, which would evict the stall.
	net.Scheduler().RunFor(45 * time.Second)
	if !dialOK {
		t.Fatal("dial to black-hole stub must succeed")
	}
	// The connection exists but the handshake never completes: the peer
	// said nothing, so it must not be promoted to tried.
	if ha.Node().AddrMan().InTried(hole) {
		t.Error("black-hole peer promoted to tried without a handshake")
	}
	out, _, _ := ha.Node().ConnCounts()
	if out != 1 {
		t.Errorf("outbound = %d, want 1 stalled connection", out)
	}
}
