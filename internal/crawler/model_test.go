package crawler

import (
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/addridx"
	"repro/internal/wire"
)

// idDialer serves fakeDialer's books as pages of dense IDs of idx, the
// way an interned backend does.
type idDialer struct {
	fakeDialer
	idx *addridx.Index
}

func (d *idDialer) Dial(addr netip.AddrPort) (Session, error) {
	sess, err := d.fakeDialer.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &idSession{fakeSession: sess.(*fakeSession), idx: d.idx}, nil
}

type idSession struct {
	*fakeSession
	idx *addridx.Index
	ids []addridx.ID
}

func (s *idSession) GetAddrIDs() ([]addridx.ID, error) {
	page, err := s.GetAddr()
	if err != nil {
		return nil, err
	}
	s.ids = s.ids[:0]
	for _, a := range page {
		id, ok := s.idx.Lookup(a.Addr)
		if !ok {
			return nil, fmt.Errorf("%v is outside the index", a.Addr)
		}
		s.ids = append(s.ids, id)
	}
	return s.ids, nil
}

// crawlInput is one decoded fuzz case: targets over a small address
// pool, each with a scripted book, some failing to dial.
type crawlInput struct {
	pool    []netip.AddrPort
	targets []netip.AddrPort
	dialer  fakeDialer
	known   map[netip.AddrPort]struct{}
}

// decodeCrawlInput turns fuzz bytes into a crawlInput. Exhausted input
// reads as zeros, so every byte string decodes.
func decodeCrawlInput(data []byte) crawlInput {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	const poolSize = 16
	in := crawlInput{
		dialer: fakeDialer{
			books: map[netip.AddrPort][]wire.NetAddress{},
			fails: map[netip.AddrPort]bool{},
		},
		known: map[netip.AddrPort]struct{}{},
	}
	for i := range poolSize {
		in.pool = append(in.pool, tAddr(i+1))
	}
	in.targets = in.pool[:1+next()%6]
	in.dialer.page = 1 + next()%5
	knownMask := next() | next()<<8
	for i, a := range in.pool {
		if knownMask&(1<<i) != 0 {
			in.known[a] = struct{}{}
		}
	}
	failMask := next()
	// Books up to 63 entries at page size 1 outlast maxGetAddrRounds.
	for k, tgt := range in.targets {
		if failMask&(1<<k) != 0 {
			in.dialer.fails[tgt] = true
		}
		book := make([]wire.NetAddress, next()%64)
		for j := range book {
			book[j] = na(in.pool[next()%poolSize])
		}
		in.dialer.books[tgt] = book
	}
	// One entry may be respelled in 4-in-6 form: the same endpoint under
	// Index.Lookup's key equality.
	if book := in.dialer.books[in.targets[next()%len(in.targets)]]; len(book) > 0 {
		e := &book[next()%len(book)]
		e.Addr = netip.AddrPortFrom(netip.AddrFrom16(e.Addr.Addr().As16()), e.Addr.Port())
	}
	return in
}

// modelCrawl is Algorithm 1 written with maps, keyed by the pool index's
// IDs: it drains each target through its own session and returns the
// reports and the unreachable union as IDs in first-seen order.
func modelCrawl(t *testing.T, in crawlInput, idx *addridx.Index) (map[netip.AddrPort]NodeReport, []addridx.ID) {
	key := func(a netip.AddrPort) addridx.ID {
		id, ok := idx.Lookup(a)
		if !ok {
			t.Fatalf("model: %v outside the pool", a)
		}
		return id
	}
	known := map[addridx.ID]bool{}
	for a := range in.known {
		known[key(a)] = true
	}
	reports := map[netip.AddrPort]NodeReport{}
	global := map[addridx.ID]bool{}
	var union []addridx.ID
	for _, tgt := range in.targets {
		rep := NodeReport{Addr: tgt}
		sess, err := in.dialer.Dial(tgt)
		if err == nil {
			rep.Connected = true
			seen := map[addridx.ID]bool{}
			for rep.Rounds < maxGetAddrRounds {
				page, err := sess.GetAddr()
				if err != nil {
					t.Fatal(err)
				}
				rep.Rounds++
				fresh := 0
				for _, e := range page {
					k := key(e.Addr)
					if seen[k] {
						continue
					}
					seen[k] = true
					fresh++
					rep.TotalSent++
					if k == key(tgt) {
						rep.SentOwnAddr = true
					}
					if known[k] {
						rep.ReachableSent++
						continue
					}
					rep.UnreachableSent++
					if !global[k] {
						global[k] = true
						union = append(union, k)
					}
				}
				if fresh == 0 {
					break
				}
			}
		}
		reports[tgt] = rep
	}
	return reports, union
}

// FuzzCrawlMatchesModel crawls each decoded input open-world and
// interned, at one and three workers, and checks every snapshot against
// modelCrawl.
func FuzzCrawlMatchesModel(f *testing.F) {
	f.Add([]byte{})
	// Two targets with overlapping books, page size 2, the first target
	// known: a cross-target duplicate and a self entry.
	f.Add([]byte{1, 1, 1, 0, 0, 5, 1, 2, 3, 4, 0, 5, 3, 2, 1, 0, 0, 2})
	// One target whose only entry is its own address in 4-in-6 form.
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0})
	// Six targets, one failing, long books at page size 1.
	f.Add([]byte{5, 0, 0x0f, 0, 0x04, 63, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0,
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
		13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 9, 5, 5, 4, 3, 2, 1, 20, 8, 9, 9, 9, 9, 9,
		9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 7, 0, 1, 2, 3, 4, 5, 6, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeCrawlInput(data)
		idx, err := addridx.Build(in.pool)
		if err != nil {
			t.Fatal(err)
		}
		wantReports, wantUnreachable := modelCrawl(t, in, idx)
		at := time.Unix(1586000000, 0)
		for _, workers := range []int{1, 3} {
			for _, tc := range []struct {
				name   string
				cfg    Config
				dialer Dialer
			}{
				{"open-world", Config{Workers: workers}, &in.dialer},
				{"interned", Config{Workers: workers, Index: idx}, &idDialer{fakeDialer: in.dialer, idx: idx}},
			} {
				snap, err := New(tc.cfg, tc.dialer).Crawl(context.Background(), at, in.targets, in.known)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
				}
				var connected []netip.AddrPort
				for _, tgt := range in.targets {
					want, got := wantReports[tgt], snap.Reports[tgt]
					if got == nil || *got != want {
						t.Fatalf("%s workers=%d: report of %v = %+v, model %+v", tc.name, workers, tgt, got, want)
					}
					if want.Connected {
						connected = append(connected, tgt)
					}
				}
				if fmt.Sprint(snap.Connected) != fmt.Sprint(connected) {
					t.Fatalf("%s workers=%d: Connected = %v, model %v", tc.name, workers, snap.Connected, connected)
				}
				if len(snap.Unreachable) != len(wantUnreachable) {
					t.Fatalf("%s workers=%d: %d unreachable, model %d: %v", tc.name, workers,
						len(snap.Unreachable), len(wantUnreachable), snap.Unreachable)
				}
				for k, a := range snap.Unreachable {
					if id, _ := idx.Lookup(a); id != wantUnreachable[k] {
						t.Fatalf("%s workers=%d: Unreachable[%d] = %v, model %v", tc.name, workers,
							k, a, idx.Addr(wantUnreachable[k]))
					}
				}
				if tc.cfg.Index == nil {
					if snap.UnreachableIDs != nil || snap.ConnectedIDs != nil {
						t.Fatalf("open-world workers=%d: snapshot carries IDs", workers)
					}
					continue
				}
				if len(snap.UnreachableIDs) != len(snap.Unreachable) || len(snap.ConnectedIDs) != len(snap.Connected) {
					t.Fatalf("interned workers=%d: %d/%d IDs for %d/%d addresses", workers,
						len(snap.UnreachableIDs), len(snap.ConnectedIDs), len(snap.Unreachable), len(snap.Connected))
				}
				for k, a := range snap.Unreachable {
					if id, _ := idx.Lookup(a); snap.UnreachableIDs[k] != id {
						t.Fatalf("interned workers=%d: UnreachableIDs[%d] = %d, Lookup(%v) = %d", workers,
							k, snap.UnreachableIDs[k], a, id)
					}
				}
				for k, a := range snap.Connected {
					if id, _ := idx.Lookup(a); snap.ConnectedIDs[k] != id {
						t.Fatalf("interned workers=%d: ConnectedIDs[%d] = %d, Lookup(%v) = %d", workers,
							k, snap.ConnectedIDs[k], a, id)
					}
				}
			}
		}
	})
}
