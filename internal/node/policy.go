package node

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/addrman"
)

// The intervention policies — the paper's §V refinements and the
// related-work remedies — are a closed set of named values. New compiles
// Config.Policies once, in resolvePolicies' one switch, into the plain
// fields the hot paths read, so an empty set costs nothing
// (BenchmarkPolicyDispatch). Policies apply in slice order and the last
// to set a knob wins (only the two relay schedules share one); the order
// also fixes the encoding, so keys and headers use canonical spellings.

// Policy is one named intervention. PolicyByName is the only way to
// build one, so a Policy always names a known behaviour; the zero
// Policy names none, and New panics on it.
type Policy struct{ name string }

// Name returns the stable name ("tried-only-addr", "horizon-17d", …).
func (p Policy) Name() string { return p.name }

// policyNames is every policy name, sorted.
var policyNames = []string{
	"churn-resilient-peering", // anchor reconnection (Younis et al., arXiv:1803.06559)
	"horizon-17d",             // tried entries expire after 17 days (§V refinement 2)
	"ideal-broadcast",         // lock-step broadcast: the grid's upper bound, not a fix
	"priority-relay",          // blocks first, outbound first (§V refinement 3)
	"tried-only-addr",         // GETADDR answers from the tried table only (§V refinement 1)
	"unreachable-tx-relay",    // unreachable nodes forward txs (Franzoni & Daza, arXiv:2010.15070)
}

// PolicyByName resolves one policy name.
func PolicyByName(name string) (Policy, error) {
	if !slices.Contains(policyNames, name) {
		return Policy{}, fmt.Errorf("node: unknown policy %q (known: %s)",
			name, strings.Join(policyNames, ", "))
	}
	return Policy{name: name}, nil
}

// PolicySet is an ordered set of interventions; empty is stock Bitcoin Core.
type PolicySet []Policy

// StockPolicyName encodes the empty PolicySet.
const StockPolicyName = "stock"

// String renders the stable encoding CSV headers, CLI flags and reprod
// cache keys carry: "stock" for the empty set, otherwise the names
// joined with "+" in set order.
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

// ParsePolicySet parses the String encoding. Duplicate names are
// rejected: policies are idempotent, so a duplicate is a caller mistake,
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
	for _, part := range parts {
		p, err := PolicyByName(part)
		if err != nil {
			return nil, err
		}
		if slices.Contains(out, p) {
			return nil, fmt.Errorf("node: duplicate policy %q in set %q", p.name, s)
		}
		out = append(out, p)
	}
	return out, nil
}

// MustPolicySet is ParsePolicySet for constant set strings; it panics on error.
func MustPolicySet(s string) PolicySet {
	set, err := ParsePolicySet(s)
	if err != nil {
		panic(err)
	}
	return set
}

// compiledPolicies is a PolicySet as the plain fields the hot paths read.
type compiledPolicies struct {
	relay            relaySchedule // roundRobin unless a relay schedule overrides it
	fwdTxUnreachable bool          // unreachable nodes forward third-party txs
	anchorsEnabled   bool          // anchor-based redialing
}

// resolvePolicies compiles set on top of stock behaviour: round-robin
// relay and the given addrman configuration.
func resolvePolicies(set PolicySet, am addrman.Config) (compiledPolicies, addrman.Config) {
	c := compiledPolicies{relay: roundRobin}
	for _, p := range set {
		switch p.name {
		case "tried-only-addr":
			am.TriedOnlyGetAddr = true
		case "horizon-17d":
			am.Horizon = 17 * 24 * time.Hour
		case "priority-relay":
			c.relay = priorityOutbound
		case "ideal-broadcast":
			c.relay = broadcast
		case "unreachable-tx-relay":
			c.fwdTxUnreachable = true
		case "churn-resilient-peering":
			c.anchorsEnabled = true
		default:
			panic(fmt.Sprintf("node: policy %q was not built by PolicyByName", p.name))
		}
	}
	return c, am
}
