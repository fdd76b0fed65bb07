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
// not copies, so a view costs one small allocation.
//
// All dial randomness is a pure function of (universe seed, frozen
// instant, dense StationID) — see netgen.StationRand — so the view is
// safe for concurrent dials and the outcome of dialing a station is
// independent of dial order and worker count.
type UniverseView struct {
	u       *netgen.Universe
	at      time.Time
	online  []addridx.ID
	visible []addridx.ID
}

var (
	_ Dialer = (*UniverseView)(nil)
	_ Prober = (*UniverseView)(nil)
)

// NewUniverseView freezes the universe at t.
func NewUniverseView(u *netgen.Universe, t time.Time) *UniverseView {
	return &UniverseView{
		u:       u,
		at:      t,
		online:  u.OnlineReachable(t),
		visible: u.VisibleUnreachable(t),
	}
}

// popSessPool recycles sessions — and, through them, the book and ID
// buffers they carry — across dials. A session returns to the pool on
// Close; the borrowed-buffer contract on Session.GetAddr (responses are
// invalid after Close) is what makes that sound.
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
	s.remote = addr
	s.cursor = 0
	s.closed = false
	if s.ids == nil {
		s.ids = make([]addridx.ID, 0, 64)
	}
	s.book, s.ids = v.u.AppendAddrBook(s.book[:0], s.ids[:0], st.ID, v.at, v.online, v.visible)
	return s, nil
}

// Probe implements Prober using the station classes.
func (v *UniverseView) Probe(addr netip.AddrPort) (ProbeOutcome, error) {
	st := v.u.ByAddr(addr)
	if st == nil {
		return ProbeSilent, nil
	}
	switch st.Class {
	case netgen.ClassReachable:
		if st.OnlineAt(v.at) {
			return ProbeReachable, nil
		}
		return ProbeSilent, nil
	case netgen.ClassResponsive:
		if st.VisibleAt(v.at) {
			return ProbeResponsive, nil
		}
		return ProbeSilent, nil
	default:
		return ProbeSilent, nil
	}
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
// The session embeds its PCG so dialing reseeds in place, and the book
// carries a parallel dense-ID slice (ids[i] is book[i]'s StationID) that
// backs the GetAddrIDs fast path.
type popSession struct {
	remote netip.AddrPort
	book   []wire.NetAddress
	ids    []addridx.ID
	cursor int
	pcg    rand.PCG
	rnd    *rand.Rand
	closed bool
}

var (
	_ Session        = (*popSession)(nil)
	_ SessionWithIDs = (*popSession)(nil)
)

// Remote implements Session.
func (s *popSession) Remote() netip.AddrPort { return s.remote }

// GetAddr implements Session.
func (s *popSession) GetAddr() ([]wire.NetAddress, error) {
	addrs, _, err := s.page()
	return addrs, err
}

// GetAddrIDs implements SessionWithIDs: popsim books are sampled from an
// interned universe, so every entry's dense ID is known at sampling time.
func (s *popSession) GetAddrIDs() ([]wire.NetAddress, []addridx.ID, error) {
	return s.page()
}

// page serves the next GETADDR response: a book slice and the parallel
// ID slice, both borrowed until the next call or Close.
func (s *popSession) page() ([]wire.NetAddress, []addridx.ID, error) {
	if s.closed {
		return nil, nil, errSessClosed
	}
	if s.cursor == 0 {
		// Inline Fisher–Yates, drawing exactly like rand.Shuffle (IntN of
		// i+1, descending): the closure-free loop keeps the swap of the
		// 64-byte entries and their parallel IDs out of a callback.
		for i := len(s.book) - 1; i > 0; i-- {
			j := s.rnd.IntN(i + 1)
			s.book[i], s.book[j] = s.book[j], s.book[i]
			s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
		}
	}
	page := len(s.book) * 23 / 100
	if page > wire.MaxAddrPerMsg {
		page = wire.MaxAddrPerMsg
	}
	if page < 1 {
		page = len(s.book)
	}
	if s.cursor >= len(s.book) {
		// Tables drained: repeat already-served addresses, which is what
		// terminates Algorithm 1.
		n := min(page, len(s.book))
		return s.book[:n], s.ids[:n], nil
	}
	end := s.cursor + page
	if end > len(s.book) {
		end = len(s.book)
	}
	addrs, ids := s.book[s.cursor:end], s.ids[s.cursor:end]
	s.cursor = end
	return addrs, ids, nil
}

// Close implements Session and recycles the session. Closing invalidates
// every slice previous GetAddr calls returned.
func (s *popSession) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
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
