package node

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/addrman"
)

// This file is the intervention-policy API: the paper's §V protocol
// refinements (and the related-work remedies the ROADMAP names) as
// first-class, composable values.
//
// A Policy is a named behaviour change. The node does NOT consult
// policies on its hot paths: New compiles Config.Policies once into the
// plain fields the hot paths already read (n.relay, n.fwdTxUnreachable,
// n.anchorsEnabled, the addrman.Config), so an empty policy set costs
// exactly what the pre-policy node cost — the same nil-cost bar as the
// crawler's Observer seam, guarded by BenchmarkPolicyDispatch.
//
// Hook points (each an optional interface a Policy may implement):
//
//   - AddrManPolicy rewrites the addrman configuration at node
//     construction (GETADDR response sampling, admission/eviction
//     horizon — the tried-only-addr and horizon-<N>d policies);
//   - RelaySchedPolicy selects the message scheduling policy
//     (priority-relay, ideal-broadcast);
//   - TxForwardPolicy lets an unreachable node forward third-party
//     transactions (unreachable-tx-relay, after Franzoni & Daza,
//     arXiv:2010.15070);
//   - PeeringPolicy enables anchor-based reconnection to recently-good
//     outbound peers (churn-resilient-peering, after Younis et al.,
//     arXiv:1803.06559).
//
// Composition order: Config.Policies applies in slice order. AddrMan
// rewrites chain (each sees the previous result); for the scalar hooks
// the last policy implementing the interface wins. The canonical named
// policies are pairwise commutative — they touch disjoint knobs — so
// every encoding of the same set behaves identically; the order still
// matters for the *encoding* (PolicySet.String joins in slice order),
// which is why cache keys and CSV headers use the canonical spelling.

// Policy is one named intervention. Implementations also implement one
// or more of the hook interfaces below; a Policy implementing none is
// legal and inert.
type Policy interface {
	// Name returns the stable registry name ("tried-only-addr",
	// "horizon-17d", …) used by PolicySet.String, ParsePolicySet, CSV
	// headers, and reprod cache keys.
	Name() string
}

// AddrManPolicy rewrites the address-manager configuration once at node
// construction.
type AddrManPolicy interface {
	Policy
	// ConfigureAddrMan returns the (possibly modified) configuration.
	ConfigureAddrMan(cfg addrman.Config) addrman.Config
}

// RelaySchedPolicy overrides the message scheduling policy.
type RelaySchedPolicy interface {
	Policy
	// RelayScheduling returns the RelayPolicy the node should run.
	RelayScheduling() RelayPolicy
}

// TxForwardPolicy controls third-party transaction forwarding on
// unreachable nodes. Stock Bitcoin Core unreachable (NATed) nodes
// accept transactions but their small inbound-free connectivity makes
// them relay dead-ends; this hook models the Franzoni–Daza remedy.
type TxForwardPolicy interface {
	Policy
	// ForwardTxWhenUnreachable reports whether an unreachable node
	// forwards third-party transactions to its other peers.
	ForwardTxWhenUnreachable() bool
}

// PeeringPolicy controls churn-resilient anchor peering: the node
// remembers recently-successful outbound peers and retries them first
// when slots free up, instead of re-gambling on the 85%-dead gossip
// mix.
type PeeringPolicy interface {
	Policy
	// AnchorPeers reports whether anchor-based redialing is enabled.
	AnchorPeers() bool
}

// maxAnchors bounds the anchor list (§ Younis-style resilience): big
// enough to cover every outbound slot, small enough that a stale list
// drains quickly (failed anchors are dropped on dial failure).
const maxAnchors = 2 * DefaultMaxOutbound

// triedOnlyAddrPolicy: GETADDR responses sample only the tried table
// (§V refinement 1 — stops the node from amplifying unverified gossip).
type triedOnlyAddrPolicy struct{}

func (triedOnlyAddrPolicy) Name() string { return "tried-only-addr" }
func (triedOnlyAddrPolicy) ConfigureAddrMan(cfg addrman.Config) addrman.Config {
	cfg.TriedOnlyGetAddr = true
	return cfg
}

// horizonPolicy: tried-table entries expire after Days days (§V
// refinement 2; the paper proposes 17 days, matching the measured
// churn persistence).
type horizonPolicy struct{ Days int }

func (p horizonPolicy) Name() string { return fmt.Sprintf("horizon-%dd", p.Days) }
func (p horizonPolicy) ConfigureAddrMan(cfg addrman.Config) addrman.Config {
	cfg.Horizon = time.Duration(p.Days) * 24 * time.Hour
	return cfg
}

// priorityRelayPolicy: blocks jump the send queue and outbound
// connections are serviced first (§V refinement 3).
type priorityRelayPolicy struct{}

func (priorityRelayPolicy) Name() string                 { return "priority-relay" }
func (priorityRelayPolicy) RelayScheduling() RelayPolicy { return PriorityOutbound }

// idealBroadcastPolicy: the theoretical lock-step broadcast (the
// intervention grid's upper bound, not a deployable fix).
type idealBroadcastPolicy struct{}

func (idealBroadcastPolicy) Name() string                 { return "ideal-broadcast" }
func (idealBroadcastPolicy) RelayScheduling() RelayPolicy { return Broadcast }

// unreachableTxRelayPolicy: unreachable nodes forward third-party
// transactions (Franzoni & Daza, arXiv:2010.15070).
type unreachableTxRelayPolicy struct{}

func (unreachableTxRelayPolicy) Name() string                   { return "unreachable-tx-relay" }
func (unreachableTxRelayPolicy) ForwardTxWhenUnreachable() bool { return true }

// churnResilientPeeringPolicy: anchor reconnection (Younis et al.,
// arXiv:1803.06559).
type churnResilientPeeringPolicy struct{}

func (churnResilientPeeringPolicy) Name() string      { return "churn-resilient-peering" }
func (churnResilientPeeringPolicy) AnchorPeers() bool { return true }

// builtinPolicies is the fixed-parameter registry. horizon-<N>d is
// parameterized and handled by PolicyByName directly.
var builtinPolicies = map[string]Policy{
	"tried-only-addr":         triedOnlyAddrPolicy{},
	"priority-relay":          priorityRelayPolicy{},
	"ideal-broadcast":         idealBroadcastPolicy{},
	"unreachable-tx-relay":    unreachableTxRelayPolicy{},
	"churn-resilient-peering": churnResilientPeeringPolicy{},
}

// PolicyNames lists every registered policy name (sorted), with the
// parameterized horizon family shown at its canonical §V parameter.
func PolicyNames() []string {
	out := make([]string, 0, len(builtinPolicies)+1)
	for name := range builtinPolicies {
		out = append(out, name)
	}
	out = append(out, "horizon-17d")
	sort.Strings(out)
	return out
}

// PolicyByName resolves one policy name. The horizon family parses as
// "horizon-<N>d" for any positive day count N (canonical: 17).
func PolicyByName(name string) (Policy, error) {
	if p, ok := builtinPolicies[name]; ok {
		return p, nil
	}
	if rest, ok := strings.CutPrefix(name, "horizon-"); ok {
		if days, ok := strings.CutSuffix(rest, "d"); ok {
			n, err := strconv.Atoi(days)
			// Reject non-canonical spellings ("07", "+7") so that
			// encode→parse→encode is the identity.
			if err == nil && n > 0 && strconv.Itoa(n) == days {
				return horizonPolicy{Days: n}, nil
			}
		}
	}
	return nil, fmt.Errorf("node: unknown policy %q (known: %s)",
		name, strings.Join(PolicyNames(), ", "))
}

// PolicySet is an ordered, composable set of interventions. The zero
// (empty) set is stock Bitcoin Core behaviour.
type PolicySet []Policy

// StockPolicyName is the canonical encoding of the empty PolicySet,
// used anywhere a policy column or flag needs a non-empty spelling.
const StockPolicyName = "stock"

// String renders the stable encoding: "stock" for the empty set,
// otherwise the policy names joined with "+" in set order. The encoding
// round-trips through ParsePolicySet and is what CSV headers, CLI
// flags, and reprod cache keys carry.
func (s PolicySet) String() string {
	if len(s) == 0 {
		return StockPolicyName
	}
	names := make([]string, len(s))
	for i, p := range s {
		names[i] = p.Name()
	}
	return strings.Join(names, "+")
}

// ParsePolicySet parses the String encoding: "stock" (the empty set) or
// "+"-joined policy names. Duplicate names are rejected — the canonical
// policies are idempotent, so a duplicate is always a caller mistake,
// and rejecting it keeps the encoding bijective.
func ParsePolicySet(s string) (PolicySet, error) {
	if s == "" {
		return nil, fmt.Errorf("node: empty policy set (use %q for stock behaviour)", StockPolicyName)
	}
	if s == StockPolicyName {
		return PolicySet{}, nil
	}
	parts := strings.Split(s, "+")
	out := make(PolicySet, 0, len(parts))
	seen := make(map[string]bool, len(parts))
	for _, part := range parts {
		p, err := PolicyByName(part)
		if err != nil {
			return nil, err
		}
		if seen[p.Name()] {
			return nil, fmt.Errorf("node: duplicate policy %q in set %q", p.Name(), s)
		}
		seen[p.Name()] = true
		out = append(out, p)
	}
	return out, nil
}

// MustPolicySet is ParsePolicySet for registry literals; it panics on
// error and is meant for compile-time-constant set strings.
func MustPolicySet(s string) PolicySet {
	set, err := ParsePolicySet(s)
	if err != nil {
		panic(err)
	}
	return set
}

// compiledPolicies is the zero-cost dispatch form of a PolicySet: the
// scalar decisions the hot paths read as plain fields. resolvePolicies
// computes it once in New.
type compiledPolicies struct {
	// relay is the effective scheduling policy (RoundRobin unless a
	// RelaySchedPolicy overrides it).
	relay RelayPolicy
	// fwdTxUnreachable forwards third-party transactions on
	// unreachable nodes.
	fwdTxUnreachable bool
	// anchorsEnabled turns on anchor-based redialing.
	anchorsEnabled bool
}

// resolvePolicies compiles set on top of stock behaviour (round-robin
// relay, the given addrman configuration): policies apply in slice
// order (last writer wins per hook), and the addrman configuration is
// rewritten through every AddrManPolicy in turn.
func resolvePolicies(set PolicySet, am addrman.Config) (compiledPolicies, addrman.Config) {
	c := compiledPolicies{relay: RoundRobin}
	for _, pol := range set {
		if ap, ok := pol.(AddrManPolicy); ok {
			am = ap.ConfigureAddrMan(am)
		}
		if rp, ok := pol.(RelaySchedPolicy); ok {
			c.relay = rp.RelayScheduling()
		}
		if tp, ok := pol.(TxForwardPolicy); ok {
			c.fwdTxUnreachable = tp.ForwardTxWhenUnreachable()
		}
		if pp, ok := pol.(PeeringPolicy); ok {
			c.anchorsEnabled = pp.AnchorPeers()
		}
	}
	return c, am
}
