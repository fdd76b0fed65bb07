package simnet

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"repro/internal/node"
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

	outcome := make(map[netip.AddrPort]map[netip.AddrPort]error) // dialer -> target -> err
	mkSink := func(self netip.AddrPort) node.SinkFunc {
		outcome[self] = make(map[netip.AddrPort]error)
		return func(ev node.Event) {
			if ev.Type == node.EvDialFail {
				outcome[self][ev.Peer] = ev.Err
			}
		}
	}
	for _, self := range []netip.AddrPort{dialerA, dialerB} {
		cfg := nodeCfg(self, seedsOf(net.Now(), deads...))
		cfg.Sink = mkSink(self)
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
		if errors.Is(errA, ErrRefused) != errors.Is(errB, ErrRefused) {
			t.Errorf("target %v: dialer A saw %v, dialer B saw %v — split must be per-address",
				target, errA, errB)
		}
		want := int(addrHash(target.Addr())%100) < fastFailPct
		if got := errors.Is(errA, ErrRefused); got != want {
			t.Errorf("target %v: refused=%v, want %v from addrHash split", target, got, want)
		}
		if errors.Is(errA, ErrRefused) {
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
			var got error
			cfg := ha.Config()
			cfg.Sink = node.SinkFunc(func(ev node.Event) {
				if ev.Type == node.EvDialFail && ev.Peer == b && got == nil {
					got = ev.Err
				}
			})
			ha.SetConfig(cfg)
			ha.Start()
			net.Scheduler().RunFor(30 * time.Second)
			if !errors.Is(got, tc.wantErr) {
				t.Fatalf("dial error = %v, want %v", got, tc.wantErr)
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
	cfg.Sink = node.SinkFunc(func(ev node.Event) {
		if ev.Type == node.EvDialSuccess && ev.Peer == hole {
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
