package node

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/addrman"
	"repro/internal/wire"
)

func TestRelayPolicyStringStable(t *testing.T) {
	cases := map[RelayPolicy]string{
		RoundRobin:       "round-robin",
		Broadcast:        "broadcast",
		PriorityOutbound: "priority-outbound",
		RelayPolicy(0):   "unknown(0)",
		RelayPolicy(42):  "unknown(42)",
		RelayPolicy(-3):  "unknown(-3)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("RelayPolicy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestPolicySetEncoding(t *testing.T) {
	cases := []string{
		"stock",
		"tried-only-addr",
		"horizon-17d",
		"horizon-3d",
		"priority-relay",
		"ideal-broadcast",
		"unreachable-tx-relay",
		"churn-resilient-peering",
		"tried-only-addr+horizon-17d+priority-relay",
		"churn-resilient-peering+unreachable-tx-relay",
	}
	for _, enc := range cases {
		set, err := ParsePolicySet(enc)
		if err != nil {
			t.Fatalf("ParsePolicySet(%q): %v", enc, err)
		}
		if got := set.String(); got != enc {
			t.Errorf("encode(parse(%q)) = %q", enc, got)
		}
	}
	if got := (PolicySet{}).String(); got != "stock" {
		t.Errorf("empty set encodes as %q, want stock", got)
	}
	if got := PolicySet(nil).String(); got != "stock" {
		t.Errorf("nil set encodes as %q, want stock", got)
	}
}

func TestParsePolicySetRejects(t *testing.T) {
	for _, bad := range []string{
		"", "nope", "stock+tried-only-addr", "tried-only-addr+tried-only-addr",
		"horizon-0d", "horizon--1d", "horizon-07d", "horizon-+7d", "horizon-d",
		"horizon-17", "tried-only-addr+", "+tried-only-addr", "HORIZON-17D",
	} {
		if set, err := ParsePolicySet(bad); err == nil {
			t.Errorf("ParsePolicySet(%q) accepted -> %q", bad, set.String())
		}
	}
}

func TestPolicyNamesAllParse(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("PolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
}

// TestResolvePoliciesHooks checks each hook lands on the compiled form,
// on top of the stock baseline (round-robin relay, untouched addrman).
func TestResolvePoliciesHooks(t *testing.T) {
	const seventeenDays = 17 * 24 * time.Hour
	for _, tc := range []struct {
		set       string
		relay     RelayPolicy
		triedOnly bool
		horizon   time.Duration
		fwdTx     bool
		anchors   bool
	}{
		// The six analysis.StockVariants() sets (the §V ablation ladder).
		{set: "stock", relay: RoundRobin},
		{set: "tried-only-addr", relay: RoundRobin, triedOnly: true},
		{set: "horizon-17d", relay: RoundRobin, horizon: seventeenDays},
		{set: "priority-relay", relay: PriorityOutbound},
		{set: "tried-only-addr+horizon-17d+priority-relay", relay: PriorityOutbound,
			triedOnly: true, horizon: seventeenDays},
		{set: "ideal-broadcast", relay: Broadcast},
		// The related-work remedies leave relay and addrman alone.
		{set: "unreachable-tx-relay+churn-resilient-peering", relay: RoundRobin,
			fwdTx: true, anchors: true},
		// Last RelaySchedPolicy wins.
		{set: "priority-relay+ideal-broadcast", relay: Broadcast},
	} {
		c, am := resolvePolicies(MustPolicySet(tc.set), addrman.Config{})
		if c.relay != tc.relay || c.fwdTxUnreachable != tc.fwdTx || c.anchorsEnabled != tc.anchors {
			t.Errorf("%s compiled to %+v, want relay=%v fwdTx=%v anchors=%v",
				tc.set, c, tc.relay, tc.fwdTx, tc.anchors)
		}
		if am.TriedOnlyGetAddr != tc.triedOnly || am.Horizon != tc.horizon {
			t.Errorf("%s: addrman (tried-only=%v, horizon=%v), want (%v, %v)",
				tc.set, am.TriedOnlyGetAddr, am.Horizon, tc.triedOnly, tc.horizon)
		}
	}
}

// TestUnreachableTxForwardGate: a stock unreachable node must not
// forward third-party transactions; with unreachable-tx-relay it must.
func TestUnreachableTxForwardGate(t *testing.T) {
	run := func(policies PolicySet) (invs int) {
		env := newFakeEnv()
		cfg := testConfig(mkAddr(10, 0, 0, 1))
		cfg.Reachable = false
		cfg.Policies = policies
		n := New(cfg, env)
		n.Start()
		// Hand-build two handshook peers, the way an outbound dial would
		// (unreachable nodes refuse OnInbound).
		for i := 0; i < 2; i++ {
			p := n.addPeer(ConnID(i+1), mkAddr(10, 0, 1, byte(i+1)), Outbound)
			p.versionReceived, p.verackReceived = true, true
			p.handshook = true
		}
		tx := &wire.MsgTx{Version: 2, TxIn: []wire.TxIn{{Sequence: 1}},
			TxOut: []wire.TxOut{{Value: 1, PkScript: []byte{0x51}}}}
		n.OnMessage(1, tx)
		env.run(time.Second)
		for _, tr := range env.transmits {
			if inv, ok := tr.msg.(*wire.MsgInv); ok {
				for _, iv := range inv.InvList {
					if iv.Type == wire.InvTypeTx {
						invs++
					}
				}
			}
		}
		return invs
	}
	if got := run(nil); got != 0 {
		t.Errorf("stock unreachable node forwarded %d tx INVs, want 0", got)
	}
	if got := run(MustPolicySet("unreachable-tx-relay")); got == 0 {
		t.Error("unreachable-tx-relay node forwarded no tx INVs")
	}
}

// TestAnchorPeering: under churn-resilient-peering a confirmed outbound
// peer is redialed first after a disconnect, and a failed anchor dial
// evicts it.
func TestAnchorPeering(t *testing.T) {
	env := newFakeEnv()
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.Policies = MustPolicySet("churn-resilient-peering")
	n := New(cfg, env)
	n.Start()

	anchor := mkAddr(10, 0, 2, 7)
	n.noteAnchor(anchor)
	na, ok := n.selectDialTarget(false)
	if !ok || na.Addr != anchor {
		t.Fatalf("selectDialTarget = %v, %v; want anchor %v", na.Addr, ok, anchor)
	}
	// A failed dial evicts the anchor; the empty addrman then yields
	// nothing.
	n.startDial(na, Outbound)
	n.OnDialResult(anchor, 0, errors.New("connection refused"))
	if len(n.anchors) != 0 {
		t.Errorf("failed anchor not evicted: %v", n.anchors)
	}
	if _, ok := n.selectDialTarget(false); ok {
		t.Error("selectDialTarget found a target after anchor eviction on an empty addrman")
	}
	// Repeat confirmations dedupe and cap.
	for i := 0; i < 3*maxAnchors; i++ {
		n.noteAnchor(mkAddr(10, 3, byte(i>>8), byte(i)))
	}
	if len(n.anchors) != maxAnchors {
		t.Errorf("anchor list length %d, want cap %d", len(n.anchors), maxAnchors)
	}
	n.noteAnchor(n.anchors[0])
	if len(n.anchors) != maxAnchors {
		t.Errorf("re-confirming an anchor grew the list to %d", len(n.anchors))
	}
}

// FuzzParsePolicySet: encode→parse→encode is the identity on every
// accepted input, and no input panics.
func FuzzParsePolicySet(f *testing.F) {
	f.Add("stock")
	f.Add("tried-only-addr+horizon-17d+priority-relay")
	f.Add("horizon-9999d")
	f.Add("stock+stock")
	f.Add("+")
	f.Add("horizon-00017d")
	f.Add(strings.Repeat("tried-only-addr+", 40) + "stock")
	f.Fuzz(func(t *testing.T, s string) {
		set, err := ParsePolicySet(s)
		if err != nil {
			return
		}
		enc := set.String()
		// Accepted inputs are already canonical: the encoding is
		// bijective, so parse must be the inverse of encode.
		if enc != s {
			t.Fatalf("parse(%q).String() = %q", s, enc)
		}
		set2, err := ParsePolicySet(enc)
		if err != nil {
			t.Fatalf("re-parse(%q): %v", enc, err)
		}
		if set2.String() != enc {
			t.Fatalf("re-encode(%q) = %q", enc, set2.String())
		}
	})
}
