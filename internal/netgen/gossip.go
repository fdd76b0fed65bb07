package netgen

import (
	"math/rand/v2"
	"time"

	"repro/internal/addridx"
	"repro/internal/wire"
)

// This file models the ADDR-gossip content of the synthetic universe: the
// address book a reachable station reveals to the crawler's iterative
// GETADDR (Algorithm 1), the seed-database views (Bitnodes, DNS), and the
// NetAddress conversions.

// NetAddr renders a station as a wire NetAddress with a gossip timestamp
// slightly in the past of t.
func (u *Universe) NetAddr(s *Station, t time.Time, rng *rand.Rand) wire.NetAddress {
	jitter := time.Duration(rng.Int64N(int64(3 * time.Hour)))
	return wire.NetAddress{
		Addr:      s.Addr,
		Services:  wire.SFNodeNetwork,
		Timestamp: t.Add(-jitter),
	}
}

// AddrBookFrom returns the full address set station s would reveal
// through iterative GETADDR at time t: its own address first, then a
// mixture of reachable and unreachable addresses at the paper's measured
// 14.9/85.1 composition. Malicious stations return an unreachable-only
// flood slice of their budget (no self-advertisement — the detection
// heuristic's tell). The book is sampled deterministically from online
// and visible, the candidate pools current at t (OnlineReachable,
// VisibleUnreachable), using a per-(station, crawl-interval) PCG stream
// keyed by the dense StationID, so book content is independent of crawl
// order.
func (u *Universe) AddrBookFrom(s *Station, t time.Time, online, visible []*Station) []wire.NetAddress {
	book, _ := u.AppendAddrBook(nil, nil, s, t, online, visible)
	return book
}

// AppendAddrBook appends station s's address book at t to addrs and
// returns the extended slice, sampling exactly as AddrBookFrom but
// reusing the caller's capacity — the crawl hot path keeps one book
// buffer per pooled session instead of allocating ~BookSize entries per
// dial. When ids is non-nil, the dense StationID of every appended entry
// is appended to it in parallel (the self entry carries s.ID), which
// lets crawl consumers skip the per-address index hash lookup; a nil ids
// skips ID tracking and returns nil.
func (u *Universe) AppendAddrBook(addrs []wire.NetAddress, ids []addridx.ID,
	s *Station, t time.Time, online, visible []*Station) ([]wire.NetAddress, []addridx.ID) {
	p := u.Params
	crawlIdx := int64(t.Sub(p.Epoch) / p.CrawlInterval)
	rng := bookRand(p.Seed, crawlIdx, s.ID)
	wantIDs := ids != nil

	if s.Malicious {
		experiments := int(p.Horizon / p.CrawlInterval)
		if experiments < 1 {
			experiments = 1
		}
		per := s.FloodBudget / experiments
		if per < 1 {
			per = 1
		}
		if addrs == nil {
			addrs = make([]wire.NetAddress, 0, per)
		}
		for i := 0; i < per && len(visible) > 0; i++ {
			target := visible[rng.IntN(len(visible))]
			addrs = append(addrs, u.NetAddr(target, t, rng))
			if wantIDs {
				ids = append(ids, target.ID)
			}
		}
		return addrs, ids
	}

	size := p.scaled(p.BookSize)
	if size < 2 {
		size = 2
	}
	if addrs == nil {
		addrs = make([]wire.NetAddress, 0, size+1)
	}
	self := wire.NetAddress{Addr: s.Addr, Services: wire.SFNodeNetwork, Timestamp: t}
	addrs = append(addrs, self)
	if wantIDs {
		ids = append(ids, s.ID)
	}
	for i := 0; i < size; i++ {
		var target *Station
		if rng.Float64() < p.AddrReachableShare && len(online) > 0 {
			target = online[rng.IntN(len(online))]
		} else if len(visible) > 0 {
			target = visible[rng.IntN(len(visible))]
		} else {
			continue
		}
		addrs = append(addrs, u.NetAddr(target, t, rng))
		if wantIDs {
			ids = append(ids, target.ID)
		}
	}
	return addrs, ids
}

// SeedView is the crawl bootstrap picture at one instant: the two seed
// databases and their blacklist-filtered remainders (Figure 3).
type SeedView struct {
	// Bitnodes is the Bitnodes-style list (currently-online covered
	// stations).
	Bitnodes []*Station
	// DNS is the DNS-seeder database (listed stations, online or not).
	DNS []*Station
	// Common counts stations on both lists.
	Common int
	// BitnodesExcluded and DNSExcluded count blacklisted entries.
	BitnodesExcluded int
	DNSExcluded      int
	// CommonExcluded counts blacklisted entries present on both lists.
	CommonExcluded int
	// Dialable is the deduplicated, blacklist-filtered union.
	Dialable []*Station
}

// SeedViewAt builds the seed databases as of t.
func (u *Universe) SeedViewAt(t time.Time) *SeedView {
	v := &SeedView{}
	seen := addridx.NewSet(len(u.stations))
	for _, s := range u.Reachable {
		onBit := s.OnBitnodes && s.OnlineAt(t)
		onDNS := s.OnDNS
		if !onBit && !onDNS {
			continue
		}
		if onBit {
			v.Bitnodes = append(v.Bitnodes, s)
			if s.Critical {
				v.BitnodesExcluded++
			}
		}
		if onDNS {
			v.DNS = append(v.DNS, s)
			if s.Critical {
				v.DNSExcluded++
			}
		}
		if onBit && onDNS {
			v.Common++
			if s.Critical {
				v.CommonExcluded++
			}
		}
		if !s.Critical && seen.Add(s.ID) {
			v.Dialable = append(v.Dialable, s)
		}
	}
	return v
}
