package netgen

import (
	"math/rand/v2"
	"slices"
	"time"

	"repro/internal/addridx"
	"repro/internal/wire"
)

// This file models the ADDR-gossip content of the synthetic universe: the
// address book a reachable station reveals to the crawler's iterative
// GETADDR (Algorithm 1), the seed-database views (Bitnodes, DNS), and the
// NetAddress conversions.

// NetAddr renders station id as a wire NetAddress whose gossip
// timestamp lies age before t — one address-book entry, rendered. The
// address comes from the Index's dense table, not from the station.
func (u *Universe) NetAddr(id addridx.ID, t time.Time, age time.Duration) wire.NetAddress {
	return wire.NetAddress{
		Addr:      u.Index.Addr(id),
		Services:  wire.SFNodeNetwork,
		Timestamp: t.Add(-age),
	}
}

// AddrBookFrom returns the full address set station s would reveal
// through iterative GETADDR at time t: its own address first, then a
// mixture of reachable and unreachable addresses at the paper's measured
// 14.9/85.1 composition. Malicious stations return an unreachable-only
// flood slice of their budget (no self-advertisement — the detection
// heuristic's tell). The book is sampled deterministically from online
// and visible, the candidate ID pools current at t (OnlineReachable,
// VisibleUnreachable), using a per-(station, crawl-interval) PCG stream
// keyed by the dense StationID, so book content is independent of crawl
// order.
func (u *Universe) AddrBookFrom(s addridx.ID, t time.Time, online, visible []addridx.ID) []wire.NetAddress {
	ids, ages := u.AppendAddrBook(new(rand.PCG), nil, nil, s, t, online, visible)
	book := make([]wire.NetAddress, len(ids))
	for i, id := range ids {
		book[i] = u.NetAddr(id, t, ages[i])
	}
	return book
}

// AppendAddrBook appends station s's address book at t to ids and ages
// and returns the extended slices: entry i is station ids[i], gossiped
// with a timestamp ages[i] before t (the self entry, first in an honest
// book, has age 0). It samples exactly as AddrBookFrom, which renders
// these pairs as addresses, but builds no address itself — the crawl hot
// path works on dense IDs end to end and renders addresses only for a
// caller that asks for them. pcg is scratch: AppendAddrBook reseeds it
// in place, so a caller that keeps one generator and one pair of
// buffers per pooled session samples a book without allocating.
func (u *Universe) AppendAddrBook(pcg *rand.PCG, ids []addridx.ID, ages []time.Duration,
	s addridx.ID, t time.Time, online, visible []addridx.ID) ([]addridx.ID, []time.Duration) {
	p := u.Params
	pcg.Seed(bookSeed(p.Seed, int64(t.Sub(p.Epoch)/CrawlInterval), s))
	rng := rand.New(pcg)
	st := u.station(s)

	if st.Malicious {
		per := st.FloodBudget / int(Horizon/CrawlInterval)
		if per < 1 {
			per = 1
		}
		ids, ages = slices.Grow(ids, per), slices.Grow(ages, per)
		for i := 0; i < per && len(visible) > 0; i++ {
			ids = append(ids, visible[rng.IntN(len(visible))])
			ages = append(ages, gossipAge(rng))
		}
		return ids, ages
	}

	size := p.scaled(bookSize)
	if size < 2 {
		size = 2
	}
	ids, ages = slices.Grow(ids, size+1), slices.Grow(ages, size+1)
	ids, ages = append(ids, s), append(ages, 0)
	for i := 0; i < size; i++ {
		var target addridx.ID
		if rng.Float64() < addrReachableShare && len(online) > 0 {
			target = online[rng.IntN(len(online))]
		} else if len(visible) > 0 {
			target = visible[rng.IntN(len(visible))]
		} else {
			continue
		}
		ids, ages = append(ids, target), append(ages, gossipAge(rng))
	}
	return ids, ages
}

// gossipAge draws how far a gossiped entry's timestamp lies in the past:
// uniform in [0, 3h).
func gossipAge(rng *rand.Rand) time.Duration {
	return time.Duration(rng.Int64N(int64(3 * time.Hour)))
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
	// Dialable is the blacklist-filtered union.
	Dialable []*Station
}

// SeedViewAt builds the seed databases as of t.
func (u *Universe) SeedViewAt(t time.Time) *SeedView {
	v := &SeedView{}
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
		if !s.Critical {
			v.Dialable = append(v.Dialable, s)
		}
	}
	return v
}
