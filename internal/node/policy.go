package node

import (
	"fmt"
	"slices"
	"strconv"
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
type Policy struct {
	name string
	days int // horizon-<days>d expiry; 0 for every other policy
}

// Name returns the stable name ("tried-only-addr", "horizon-17d", …).
func (p Policy) Name() string { return p.name }

// policyNames is every policy name, sorted, with the parameterized
// horizon family shown at its canonical §V parameter.
var policyNames = []string{
	"churn-resilient-peering", // anchor reconnection (Younis et al., arXiv:1803.06559)
	"horizon-17d",             // tried entries expire after N days (§V refinement 2)
	"ideal-broadcast",         // lock-step broadcast: the grid's upper bound, not a fix
	"priority-relay",          // blocks first, outbound first (§V refinement 3)
	"tried-only-addr",         // GETADDR answers from the tried table only (§V refinement 1)
	"unreachable-tx-relay",    // unreachable nodes forward txs (Franzoni & Daza, arXiv:2010.15070)
}

// PolicyNames returns a copy of policyNames.
func PolicyNames() []string { return slices.Clone(policyNames) }

// PolicyByName resolves one policy name. The horizon family parses as
// "horizon-<N>d" for any positive day count N (canonical: 17).
func PolicyByName(name string) (Policy, error) {
	if rest, ok := strings.CutPrefix(name, "horizon-"); ok {
		if days, ok := strings.CutSuffix(rest, "d"); ok {
			n, err := strconv.Atoi(days)
			// Reject non-canonical spellings ("07", "+7") so that
			// encode→parse→encode is the identity.
			if err == nil && n > 0 && strconv.Itoa(n) == days {
				return Policy{name: name, days: n}, nil
			}
		}
	} else if slices.Contains(policyNames, name) {
		return Policy{name: name}, nil
	}
	return Policy{}, fmt.Errorf("node: unknown policy %q (known: %s)",
		name, strings.Join(PolicyNames(), ", "))
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
	relay            RelayPolicy // RoundRobin unless a relay schedule overrides it
	fwdTxUnreachable bool        // unreachable nodes forward third-party txs
	anchorsEnabled   bool        // anchor-based redialing
}

// resolvePolicies compiles set on top of stock behaviour: round-robin
// relay and the given addrman configuration.
func resolvePolicies(set PolicySet, am addrman.Config) (compiledPolicies, addrman.Config) {
	c := compiledPolicies{relay: RoundRobin}
	for _, p := range set {
		switch p.name {
		case "tried-only-addr":
			am.TriedOnlyGetAddr = true
		case "priority-relay":
			c.relay = PriorityOutbound
		case "ideal-broadcast":
			c.relay = Broadcast
		case "unreachable-tx-relay":
			c.fwdTxUnreachable = true
		case "churn-resilient-peering":
			c.anchorsEnabled = true
		default:
			if p.days <= 0 {
				panic(fmt.Sprintf("node: policy %q was not built by PolicyByName", p.name))
			}
			am.Horizon = time.Duration(p.days) * 24 * time.Hour
		}
	}
	return c, am
}
