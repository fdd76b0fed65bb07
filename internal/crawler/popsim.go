package crawler

import (
	"errors"
	"math/rand/v2"
	"net/netip"
	"sync"
	"time"

	"repro/internal/addridx"
	"repro/internal/netgen"
	"repro/internal/wire"
)

// This file provides the population-simulation backend: the crawler runs
// against a netgen.Universe snapshot, which is fast enough to reproduce
// the paper's full 60-day, ~700K-address study offline.

// UniverseView is a Dialer and Prober over one instant of a synthetic
// universe. Create a fresh view per experiment: the candidate pools are
// frozen at construction, matching the paper's per-experiment snapshots.
// They are the universe's memoized read-only ID slices for the instant,
// not copies, and the view reads the universe's shared visibility column
// for probes, so a view costs one small allocation.
//
// All dial randomness is a pure function of (universe seed, frozen
// instant, dense StationID) — see netgen.StationSeed — so the view is
// safe for concurrent dials and the outcome of dialing a station is
// independent of dial order and worker count.
type UniverseView struct {
	u       *netgen.Universe
	at      time.Time
	tn      int64 // at, as netgen.UnixNano
	online  []addridx.ID
	visible []addridx.ID
	vis     []netgen.VisWindow // u.Visibility()
}

var (
	_ Dialer        = (*UniverseView)(nil)
	_ Prober        = (*UniverseView)(nil)
	_ ProberWithIDs = (*UniverseView)(nil)
)

// NewUniverseView freezes the universe at t.
func NewUniverseView(u *netgen.Universe, t time.Time) *UniverseView {
	return &UniverseView{
		u:       u,
		at:      t,
		tn:      netgen.UnixNano(t),
		online:  u.OnlineReachable(t),
		visible: u.VisibleUnreachable(t),
		vis:     u.Visibility(),
	}
}

// popSessPool recycles sessions — and, through them, the book and page
// buffers and the two generators they carry — across dials, so a warm
// dial allocates nothing. A session returns to the pool on Close; the
// borrowed-buffer contract on Session.GetAddr (responses are invalid
// after Close) is what makes that sound.
var popSessPool = sync.Pool{
	New: func() any {
		s := &popSession{}
		s.rnd = rand.New(&s.pcg)
		return s
	},
}

// Dial implements Dialer: the target must be a reachable station that is
// online at the frozen instant, and even then dials fail with probability
// 1−netgen.ConnectSuccessRate (stale listings, full inbound slots). Failures
// return shared sentinel errors: a popsim crawl sees thousands of failed
// dials per experiment, and per-failure error wrapping was measurable
// crawl-path garbage.
func (v *UniverseView) Dial(addr netip.AddrPort) (Session, error) {
	st := v.u.ByAddr(addr)
	if st == nil {
		return nil, errDialTimeout
	}
	if st.Class != netgen.ClassReachable {
		return nil, errDialRefused
	}
	if !st.OnlineAt(v.at) {
		return nil, errDialTimeout
	}
	s := popSessPool.Get().(*popSession)
	s.pcg.Seed(netgen.StationSeed(v.u.Params.Seed, v.at, st.ID))
	if s.rnd.Float64() >= netgen.ConnectSuccessRate {
		popSessPool.Put(s)
		return nil, errDialRefused
	}
	s.view = v
	s.remote = addr
	s.cursor = 0
	s.closed = false
	s.ids, s.ages = v.u.AppendAddrBook(&s.bookPCG, s.ids[:0], s.ages[:0], st.ID, v.at, v.online, v.visible)
	return s, nil
}

// Probe implements Prober: an address outside the universe is silent,
// and any other is classified as ProbeID classifies its station.
func (v *UniverseView) Probe(addr netip.AddrPort) (ProbeOutcome, error) {
	id, ok := v.u.Index.Lookup(addr)
	if !ok {
		return ProbeSilent, nil
	}
	return v.ProbeID(id)
}

// ProbeID implements ProberWithIDs using the station classes: a
// reachable station answers as reachable while online, a responsive one
// as responsive while gossip-visible, and everything else is silent. An
// unreachable station is judged from the universe's visibility column,
// without touching its Station.
func (v *UniverseView) ProbeID(id addridx.ID) (ProbeOutcome, error) {
	nReach := addridx.ID(len(v.u.Reachable))
	if id < nReach {
		if v.u.Reachable[id].OnlineAt(v.at) {
			return ProbeReachable, nil
		}
		return ProbeSilent, nil
	}
	if j := id - nReach; j < addridx.ID(len(v.vis)) && v.vis[j].Responsive && v.vis[j].Contains(v.tn) {
		return ProbeResponsive, nil
	}
	return ProbeSilent, nil
}

// Dial failure sentinels (internal; callers only need the error).
var (
	errDialTimeout = errors.New("dial timeout")
	errDialRefused = errors.New("connection refused")
	errSessClosed  = errors.New("popsim: session closed")
)

// popSession pages through a station's address book. Bitcoin Core
// answers each GETADDR with a random min(23%, 1000) sample; Algorithm 1
// keeps re-asking until a response adds nothing new. Serving the book as
// a shuffled sequence of pages (then a repeat page) preserves those
// termination semantics while keeping each crawl linear in the book size
// — the with-replacement original needs Θ(n log n) transfers per node,
// which matters at the study's 8,270-nodes × 60-experiments scale.
//
// The book is held as netgen.AppendAddrBook's (ID, age) pairs: ids[i]
// is an entry's dense StationID and ages[i] how far its timestamp lies
// before the view's instant. GetAddrIDs serves ID pages straight from
// ids; only GetAddr renders addresses, one page at a time into the
// reused page buffer. The session embeds both of its generators — the
// dial/shuffle stream and the book stream — so a dial reseeds them in
// place.
type popSession struct {
	view    *UniverseView
	remote  netip.AddrPort
	ids     []addridx.ID
	ages    []time.Duration
	page    []wire.NetAddress
	cursor  int
	pcg     rand.PCG
	rnd     *rand.Rand
	bookPCG rand.PCG
	closed  bool
}

var (
	_ Session        = (*popSession)(nil)
	_ SessionWithIDs = (*popSession)(nil)
)

// Remote implements Session.
func (s *popSession) Remote() netip.AddrPort { return s.remote }

// GetAddr implements Session, rendering the next page's entries as
// addresses into the session's page buffer.
func (s *popSession) GetAddr() ([]wire.NetAddress, error) {
	lo, hi, err := s.next()
	if err != nil {
		return nil, err
	}
	s.page = s.page[:0]
	for i := lo; i < hi; i++ {
		s.page = append(s.page, s.view.u.NetAddr(s.ids[i], s.view.at, s.ages[i]))
	}
	return s.page, nil
}

// GetAddrIDs implements SessionWithIDs: popsim books are sampled from an
// interned universe, so a page is a slice of the book's dense IDs.
func (s *popSession) GetAddrIDs() ([]addridx.ID, error) {
	lo, hi, err := s.next()
	if err != nil {
		return nil, err
	}
	return s.ids[lo:hi], nil
}

// next advances to the next GETADDR response and returns its range of
// book entries.
func (s *popSession) next() (lo, hi int, err error) {
	if s.closed {
		return 0, 0, errSessClosed
	}
	if s.cursor == 0 {
		// Inline Fisher–Yates, drawing exactly like rand.Shuffle (IntN of
		// i+1, descending): the closure-free loop keeps the swap of the
		// parallel IDs and ages out of a callback.
		for i := len(s.ids) - 1; i > 0; i-- {
			j := s.rnd.IntN(i + 1)
			s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
			s.ages[i], s.ages[j] = s.ages[j], s.ages[i]
		}
	}
	page := len(s.ids) * 23 / 100
	if page > wire.MaxAddrPerMsg {
		page = wire.MaxAddrPerMsg
	}
	if page < 1 {
		page = len(s.ids)
	}
	if s.cursor >= len(s.ids) {
		// Tables drained: repeat already-served addresses, which is what
		// terminates Algorithm 1.
		return 0, min(page, len(s.ids)), nil
	}
	lo, hi = s.cursor, min(s.cursor+page, len(s.ids))
	s.cursor = hi
	return lo, hi, nil
}

// Close implements Session and recycles the session. Closing invalidates
// every slice previous GetAddr calls returned.
func (s *popSession) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.view = nil
	popSessPool.Put(s)
	return nil
}

// ReachableReference builds the known-reachable reference set the paper
// uses (the union of the seed databases), from a seed view.
func ReachableReference(view *netgen.SeedView) map[netip.AddrPort]struct{} {
	out := make(map[netip.AddrPort]struct{},
		len(view.Bitnodes)+len(view.DNS))
	for _, s := range view.Bitnodes {
		out[s.Addr] = struct{}{}
	}
	for _, s := range view.DNS {
		out[s.Addr] = struct{}{}
	}
	return out
}

// TargetsOf extracts dialable target addresses from a seed view.
func TargetsOf(view *netgen.SeedView) []netip.AddrPort {
	out := make([]netip.AddrPort, len(view.Dialable))
	for i, s := range view.Dialable {
		out[i] = s.Addr
	}
	return out
}
