package crawler

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/addridx"
	"repro/internal/netgen"
	"repro/internal/wire"
)

// fakeDialer serves scripted books for testing the crawl logic in
// isolation from the popsim backend.
type fakeDialer struct {
	books map[netip.AddrPort][]wire.NetAddress
	fails map[netip.AddrPort]bool
	page  int
}

func (d *fakeDialer) Dial(addr netip.AddrPort) (Session, error) {
	if d.fails[addr] {
		return nil, errors.New("refused")
	}
	book, ok := d.books[addr]
	if !ok {
		return nil, errors.New("timeout")
	}
	page := d.page
	if page == 0 {
		page = 3
	}
	return &fakeSession{remote: addr, book: book, page: page}, nil
}

type fakeSession struct {
	remote netip.AddrPort
	book   []wire.NetAddress
	cursor int
	page   int
	closed bool
}

func (s *fakeSession) Remote() netip.AddrPort { return s.remote }

func (s *fakeSession) GetAddr() ([]wire.NetAddress, error) {
	if s.closed {
		return nil, errors.New("closed")
	}
	if s.cursor >= len(s.book) {
		// Repeat the first page: terminates Algorithm 1.
		end := s.page
		if end > len(s.book) {
			end = len(s.book)
		}
		return s.book[:end], nil
	}
	end := s.cursor + s.page
	if end > len(s.book) {
		end = len(s.book)
	}
	out := s.book[s.cursor:end]
	s.cursor = end
	return out, nil
}

func (s *fakeSession) Close() error {
	s.closed = true
	return nil
}

func tAddr(i int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 0, byte(i >> 8), byte(i)}), 8333)
}

func na(addr netip.AddrPort) wire.NetAddress {
	return wire.NetAddress{Addr: addr, Timestamp: time.Unix(1586000000, 0)}
}

func TestCrawlEmptyTargets(t *testing.T) {
	c := New(Config{}, &fakeDialer{})
	if _, err := c.Crawl(context.Background(), time.Now(), nil, nil); err == nil {
		t.Error("empty targets: want error")
	}
}

func TestCrawlDrainsFullBook(t *testing.T) {
	target := tAddr(1)
	book := []wire.NetAddress{na(target)} // self first
	for i := 10; i < 30; i++ {
		book = append(book, na(tAddr(i)))
	}
	d := &fakeDialer{books: map[netip.AddrPort][]wire.NetAddress{target: book}}
	c := New(Config{}, d)
	known := map[netip.AddrPort]struct{}{target: {}}
	snap, err := c.Crawl(context.Background(), time.Unix(0, 0), []netip.AddrPort{target}, known)
	if err != nil {
		t.Fatal(err)
	}
	rep := snap.Reports[target]
	if !rep.Connected {
		t.Fatal("not connected")
	}
	if rep.TotalSent != len(book) {
		t.Errorf("TotalSent = %d, want %d (full book drained)", rep.TotalSent, len(book))
	}
	if !rep.SentOwnAddr {
		t.Error("self-advertisement not detected")
	}
	if rep.ReachableSent != 1 || rep.UnreachableSent != 20 {
		t.Errorf("split = %d/%d, want 1/20", rep.ReachableSent, rep.UnreachableSent)
	}
	if len(snap.Unreachable) != 20 {
		t.Errorf("unreachable set = %d, want 20", len(snap.Unreachable))
	}
	// Termination requires one extra repeat round beyond the book pages.
	wantRounds := (len(book)+2)/3 + 1
	if rep.Rounds != wantRounds {
		t.Errorf("rounds = %d, want %d", rep.Rounds, wantRounds)
	}
}

func TestCrawlFailedDialRecorded(t *testing.T) {
	alive, dead := tAddr(1), tAddr(2)
	d := &fakeDialer{
		books: map[netip.AddrPort][]wire.NetAddress{alive: {na(alive)}},
		fails: map[netip.AddrPort]bool{dead: true},
	}
	c := New(Config{}, d)
	snap, err := c.Crawl(context.Background(), time.Unix(0, 0), []netip.AddrPort{alive, dead}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Dialed != 2 {
		t.Errorf("Dialed = %d, want 2", snap.Dialed)
	}
	if len(snap.Connected) != 1 {
		t.Errorf("Connected = %d, want 1", len(snap.Connected))
	}
	if snap.Reports[dead].Connected {
		t.Error("failed dial marked connected")
	}
}

func TestCrawlMaxRoundsBound(t *testing.T) {
	// A pathological session that always returns fresh addresses must be
	// cut off after maxGetAddrRounds.
	target := tAddr(1)
	var big []wire.NetAddress
	for i := 0; i < 1000; i++ {
		big = append(big, na(tAddr(i+100)))
	}
	d := &fakeDialer{books: map[netip.AddrPort][]wire.NetAddress{target: big}, page: 5}
	c := New(Config{}, d)
	snap, err := c.Crawl(context.Background(), time.Unix(0, 0), []netip.AddrPort{target}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Reports[target].Rounds; got != maxGetAddrRounds {
		t.Errorf("rounds = %d, want %d (capped)", got, maxGetAddrRounds)
	}
}

func TestSuspectedMalicious(t *testing.T) {
	honest, evil := tAddr(1), tAddr(2)
	honestBook := []wire.NetAddress{na(honest), na(tAddr(50)), na(tAddr(51))}
	var evilBook []wire.NetAddress
	for i := 100; i < 140; i++ {
		evilBook = append(evilBook, na(tAddr(i)))
	}
	d := &fakeDialer{books: map[netip.AddrPort][]wire.NetAddress{
		honest: honestBook,
		evil:   evilBook,
	}}
	c := New(Config{}, d)
	known := map[netip.AddrPort]struct{}{honest: {}, evil: {}}
	snap, err := c.Crawl(context.Background(), time.Unix(0, 0), []netip.AddrPort{honest, evil}, known)
	if err != nil {
		t.Fatal(err)
	}
	suspects := snap.SuspectedMalicious(10)
	if len(suspects) != 1 || suspects[0].Addr != evil {
		t.Fatalf("suspects = %+v, want exactly the evil node", suspects)
	}
	// The honest node must not be flagged even with a lower threshold.
	for _, s := range snap.SuspectedMalicious(1) {
		if s.Addr == honest {
			t.Error("honest node flagged as malicious")
		}
	}
}

func TestAddrComposition(t *testing.T) {
	target := tAddr(1)
	book := []wire.NetAddress{na(target)}
	for i := 0; i < 3; i++ {
		book = append(book, na(tAddr(10+i))) // reachable
	}
	for i := 0; i < 6; i++ {
		book = append(book, na(tAddr(100+i))) // unreachable
	}
	known := map[netip.AddrPort]struct{}{target: {}}
	for i := 0; i < 3; i++ {
		known[tAddr(10+i)] = struct{}{}
	}
	d := &fakeDialer{books: map[netip.AddrPort][]wire.NetAddress{target: book}}
	c := New(Config{}, d)
	snap, err := c.Crawl(context.Background(), time.Unix(0, 0), []netip.AddrPort{target}, known)
	if err != nil {
		t.Fatal(err)
	}
	r, u := snap.AddrComposition()
	if r < 0.39 || r > 0.41 { // 4 of 10
		t.Errorf("reachable share = %v, want 0.4", r)
	}
	if u < 0.59 || u > 0.61 {
		t.Errorf("unreachable share = %v, want 0.6", u)
	}
}

// fakeProber classifies by a fixed map.
type fakeProber struct {
	outcomes map[netip.AddrPort]ProbeOutcome
}

func (p *fakeProber) Probe(addr netip.AddrPort) (ProbeOutcome, error) {
	if o, ok := p.outcomes[addr]; ok {
		return o, nil
	}
	return ProbeSilent, nil
}

func TestScan(t *testing.T) {
	p := &fakeProber{outcomes: map[netip.AddrPort]ProbeOutcome{
		tAddr(1): ProbeResponsive,
		tAddr(2): ProbeSilent,
		tAddr(3): ProbeReachable,
	}}
	targets := []netip.AddrPort{tAddr(1), tAddr(2), tAddr(3), tAddr(4)}
	res, err := ScanWith(context.Background(), ScanConfig{Workers: 1}, time.Unix(0, 0), p, targets)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probed != 4 {
		t.Errorf("Probed = %d, want 4", res.Probed)
	}
	if len(res.Responsive) != 1 || res.Responsive[0] != tAddr(1) {
		t.Errorf("Responsive = %v", res.Responsive)
	}
	if len(res.ReachableSurprises) != 1 || res.ReachableSurprises[0] != tAddr(3) {
		t.Errorf("ReachableSurprises = %v", res.ReachableSurprises)
	}
	if res.ResponsiveIDs != nil {
		t.Errorf("ResponsiveIDs = %v without IDs", res.ResponsiveIDs)
	}
	// fakeProber has no ProbeID, so a scan by ID is a configuration
	// error, not a scan by address.
	if _, err := ScanWith(context.Background(), ScanConfig{Workers: 1, IDs: []addridx.ID{7, 7, 7, 7}},
		time.Unix(0, 0), p, targets); err == nil {
		t.Error("a scan with IDs through a prober without ProbeID succeeded")
	}
}

// flakyProber fails on a fixed subset of addresses.
type flakyProber struct {
	fail     map[netip.AddrPort]bool
	outcomes map[netip.AddrPort]ProbeOutcome
}

func (p *flakyProber) Probe(addr netip.AddrPort) (ProbeOutcome, error) {
	if p.fail[addr] {
		return 0, fmt.Errorf("raw socket failure")
	}
	if o, ok := p.outcomes[addr]; ok {
		return o, nil
	}
	return ProbeSilent, nil
}

func TestScanToleratesProbeErrors(t *testing.T) {
	// A failed probe must be counted and skipped, not abort the sweep:
	// the responsive address after the failure is still found.
	p := &flakyProber{
		fail:     map[netip.AddrPort]bool{tAddr(1): true},
		outcomes: map[netip.AddrPort]ProbeOutcome{tAddr(2): ProbeResponsive},
	}
	res, err := ScanWith(context.Background(), ScanConfig{Workers: 1}, time.Unix(0, 0), p, []netip.AddrPort{tAddr(1), tAddr(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Probed != 2 {
		t.Errorf("Probed = %d, want 2", res.Probed)
	}
	if res.ProbeErrors != 1 {
		t.Errorf("ProbeErrors = %d, want 1", res.ProbeErrors)
	}
	if len(res.Responsive) != 1 || res.Responsive[0] != tAddr(2) {
		t.Errorf("Responsive = %v, want [%v]", res.Responsive, tAddr(2))
	}
}

func TestScanResultOrder(t *testing.T) {
	// Responsive and misclassified-reachable addresses are listed in
	// target order, and failures are counted, at any fan-out width.
	p := &flakyProber{
		fail: map[netip.AddrPort]bool{tAddr(2): true, tAddr(5): true},
		outcomes: map[netip.AddrPort]ProbeOutcome{
			tAddr(1): ProbeResponsive, tAddr(3): ProbeReachable,
			tAddr(4): ProbeResponsive, tAddr(6): ProbeReachable, tAddr(7): ProbeResponsive,
		},
	}
	var targets []netip.AddrPort
	for i := 1; i <= 8; i++ {
		targets = append(targets, tAddr(i))
	}
	for _, workers := range []int{1, 4} {
		res, err := ScanWith(context.Background(), ScanConfig{Workers: workers}, time.Unix(0, 0), p, targets)
		if err != nil {
			t.Fatal(err)
		}
		if want := []netip.AddrPort{tAddr(1), tAddr(4), tAddr(7)}; !reflect.DeepEqual(res.Responsive, want) {
			t.Errorf("workers=%d: Responsive = %v, want %v", workers, res.Responsive, want)
		}
		if want := []netip.AddrPort{tAddr(3), tAddr(6)}; !reflect.DeepEqual(res.ReachableSurprises, want) {
			t.Errorf("workers=%d: ReachableSurprises = %v, want %v", workers, res.ReachableSurprises, want)
		}
		if res.Probed != 8 || res.ProbeErrors != 2 {
			t.Errorf("workers=%d: Probed/ProbeErrors = %d/%d, want 8/2", workers, res.Probed, res.ProbeErrors)
		}
	}
}

func TestScanCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ScanWith(ctx, ScanConfig{Workers: 1}, time.Unix(0, 0),
		&fakeProber{}, []netip.AddrPort{tAddr(1)})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// cancellingDialer wraps fakeDialer and cancels the crawl's context on
// its k-th dial.
type cancellingDialer struct {
	fakeDialer
	k      int64
	dials  atomic.Int64
	cancel context.CancelFunc
}

func (d *cancellingDialer) Dial(addr netip.AddrPort) (Session, error) {
	if d.dials.Add(1) == d.k {
		d.cancel()
	}
	return d.fakeDialer.Dial(addr)
}

func TestCrawlCancelled(t *testing.T) {
	// Cancellation mid-crawl: Crawl returns ctx.Err() and no snapshot,
	// and every goroutine it started has exited.
	books := make(map[netip.AddrPort][]wire.NetAddress)
	var targets []netip.AddrPort
	for i := 1; i <= 40; i++ {
		targets = append(targets, tAddr(i))
		books[tAddr(i)] = []wire.NetAddress{na(tAddr(i)), na(tAddr(100 + i))}
	}
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		d := &cancellingDialer{fakeDialer: fakeDialer{books: books}, k: 5, cancel: cancel}
		snap, err := New(Config{Workers: workers}, d).Crawl(ctx, time.Unix(0, 0), targets, nil)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if snap != nil {
			t.Errorf("workers=%d: snapshot returned from a cancelled crawl", workers)
		}
		// One worker checks the context before every target; several may
		// each have a dial in flight when the k-th cancels.
		if n := d.dials.Load(); workers == 1 && n != d.k {
			t.Errorf("workers=1: %d dials, want the crawl to stop at dial %d", n, d.k)
		}
		// A goroutine that has signalled its WaitGroup may not have left
		// the scheduler's count yet: give it a moment.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("workers=%d: %d goroutines before the crawl, %d after", workers, before, after)
		}
	}
}

// closeFailDialer wraps fakeDialer so every session's Close fails.
type closeFailDialer struct{ fakeDialer }

func (d *closeFailDialer) Dial(addr netip.AddrPort) (Session, error) {
	sess, err := d.fakeDialer.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &closeFailSession{Session: sess}, nil
}

type closeFailSession struct{ Session }

func (s *closeFailSession) Close() error { return errors.New("connection reset during FIN") }

func TestCrawlKeepsSnapshotOnCloseError(t *testing.T) {
	// A session-teardown failure after a successful drain must not
	// discard the drained data — it is recorded on the report instead.
	target := tAddr(1)
	book := []wire.NetAddress{na(target), na(tAddr(10)), na(tAddr(11))}
	d := &closeFailDialer{fakeDialer{books: map[netip.AddrPort][]wire.NetAddress{target: book}}}
	c := New(Config{}, d)
	snap, err := c.Crawl(context.Background(), time.Unix(0, 0),
		[]netip.AddrPort{target}, map[netip.AddrPort]struct{}{target: {}})
	if err != nil {
		t.Fatal(err)
	}
	rep := snap.Reports[target]
	if !rep.Connected || rep.TotalSent != len(book) {
		t.Fatalf("drained data lost: %+v", rep)
	}
	if rep.CloseErr == "" {
		t.Error("close failure not recorded on the report")
	}
	if len(snap.Unreachable) != 2 {
		t.Errorf("unreachable set = %d, want 2", len(snap.Unreachable))
	}
}

func TestCrawlWorkerCountInvariance(t *testing.T) {
	// The snapshot must be byte-identical at any fan-out width: the popsim backend keys all randomness by StationID
	// and the merge is in target order.
	u := smallUniverse(t)
	at := u.Params.Epoch.Add(10 * 24 * time.Hour)
	seedView := u.SeedViewAt(at)
	targets := TargetsOf(seedView)
	known := ReachableReference(seedView)

	crawlWith := func(workers int) *Snapshot {
		view := NewUniverseView(u, at)
		c := New(Config{Workers: workers, Index: u.Index}, view)
		snap, err := c.Crawl(context.Background(), at, targets, known)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	seq := crawlWith(1)
	if len(seq.Unreachable) == 0 {
		t.Fatal("degenerate crawl: no unreachable address")
	}
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"workers=4", 4},
		// The same instant again on the same universe: a book is a pure
		// function of (seed, instant, StationID), so nothing has to
		// remember the first crawl for the second to repeat it.
		{"same instant again", 1},
	} {
		got := crawlWith(tc.workers)
		if !reflect.DeepEqual(seq, got) {
			t.Errorf("%s: snapshot differs from the first workers=1 crawl:\n"+
				"first: dialed=%d connected=%d unreachable=%d\n"+
				"got:   dialed=%d connected=%d unreachable=%d", tc.name,
				seq.Dialed, len(seq.Connected), len(seq.Unreachable),
				got.Dialed, len(got.Connected), len(got.Unreachable))
		}
	}
}

func TestCrawlUnreachableOrderIsFirstSeen(t *testing.T) {
	// Unreachable addresses are listed in first-seen order: targets in
	// crawl order, receipt order within a target, duplicates dropped.
	t1, t2 := tAddr(1), tAddr(2)
	shared := tAddr(100)
	books := map[netip.AddrPort][]wire.NetAddress{
		t1: {na(t1), na(tAddr(101)), na(shared)},
		t2: {na(t2), na(shared), na(tAddr(102))},
	}
	known := map[netip.AddrPort]struct{}{t1: {}, t2: {}}
	c := New(Config{}, &fakeDialer{books: books})
	snap, err := c.Crawl(context.Background(), time.Unix(0, 0),
		[]netip.AddrPort{t1, t2}, known)
	if err != nil {
		t.Fatal(err)
	}
	want := []netip.AddrPort{tAddr(101), shared, tAddr(102)}
	if !reflect.DeepEqual(snap.Unreachable, want) {
		t.Errorf("Unreachable = %v, want %v", snap.Unreachable, want)
	}
}

// assertExactSize checks that the snapshot's aggregate slices were
// allocated once, at exactly their final length.
func assertExactSize(t *testing.T, name string, snap *Snapshot) {
	t.Helper()
	if len(snap.Unreachable) != cap(snap.Unreachable) {
		t.Errorf("%s: Unreachable len %d, cap %d", name, len(snap.Unreachable), cap(snap.Unreachable))
	}
	if len(snap.UnreachableIDs) != cap(snap.UnreachableIDs) {
		t.Errorf("%s: UnreachableIDs len %d, cap %d", name, len(snap.UnreachableIDs), cap(snap.UnreachableIDs))
	}
}

// firstSeenUnreachable is the reference for Snapshot.Unreachable: every
// book entry outside known, in target order then book order, once.
func firstSeenUnreachable(targets []netip.AddrPort, books map[netip.AddrPort][]wire.NetAddress,
	known map[netip.AddrPort]struct{}) []netip.AddrPort {
	seen := make(map[netip.AddrPort]struct{})
	var out []netip.AddrPort
	for _, tgt := range targets {
		for _, a := range books[tgt] {
			if _, ok := known[a.Addr]; ok {
				continue
			}
			if _, dup := seen[a.Addr]; dup {
				continue
			}
			seen[a.Addr] = struct{}{}
			out = append(out, a.Addr)
		}
	}
	return out
}

func TestCrawlOpenWorldOverlappingBooks(t *testing.T) {
	// Three big books that overlap: the per-target sets grow through
	// several resizes, and the merge must drop each cross-target
	// duplicate while keeping first-seen order.
	rng := rand.New(rand.NewSource(11))
	targets := []netip.AddrPort{tAddr(1), tAddr(2), tAddr(3)}
	known := map[netip.AddrPort]struct{}{}
	books := map[netip.AddrPort][]wire.NetAddress{}
	for k, tgt := range targets {
		known[tgt] = struct{}{}
		// Target k holds addresses [3000k, 3000k+6000), shuffled: each
		// book shares half of itself with the next target's.
		book := []wire.NetAddress{na(tgt), na(targets[(k+1)%len(targets)])}
		for _, i := range rng.Perm(6000) {
			n := 3000*k + i
			book = append(book, na(netip.AddrPortFrom(
				netip.AddrFrom4([4]byte{10, byte(n >> 16), byte(n >> 8), byte(n)}), 8333)))
		}
		books[tgt] = book
	}
	want := firstSeenUnreachable(targets, books, known)
	if len(want) != 12000 {
		t.Fatalf("fixture: %d distinct unreachable, want 12000", len(want))
	}
	for _, workers := range []int{1, 3} {
		c := New(Config{Workers: workers}, &fakeDialer{books: books, page: 1000})
		snap, err := c.Crawl(context.Background(), time.Unix(0, 0), targets, known)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snap.Unreachable, want) {
			t.Errorf("workers=%d: Unreachable differs from first-seen order (%d vs %d entries)",
				workers, len(snap.Unreachable), len(want))
		}
		if snap.UnreachableIDs != nil {
			t.Errorf("workers=%d: UnreachableIDs set without an Index", workers)
		}
		assertExactSize(t, fmt.Sprintf("workers=%d", workers), snap)
		for _, tgt := range targets {
			rep := snap.Reports[tgt]
			if rep.TotalSent != 6002 || rep.ReachableSent != 2 || rep.UnreachableSent != 6000 {
				t.Errorf("workers=%d: %v sent %d = %d reachable + %d unreachable, want 6002 = 2 + 6000",
					workers, tgt, rep.TotalSent, rep.ReachableSent, rep.UnreachableSent)
			}
		}
	}
}

func TestCrawlCountsMappedFormOnce(t *testing.T) {
	// The decoder unmaps 4-in-6 addresses, so a page never carries both
	// forms of one endpoint off the wire; if a session does, they are one
	// address, as in addridx.Index.
	target := tAddr(1)
	v4 := netip.MustParseAddrPort("198.51.100.7:8333")
	mapped := netip.MustParseAddrPort("[::ffff:198.51.100.7]:8333")
	mappedSelf := netip.AddrPortFrom(netip.AddrFrom16(target.Addr().As16()), target.Port())
	book := []wire.NetAddress{na(target), na(v4), na(mapped), na(mappedSelf)}
	c := New(Config{}, &fakeDialer{books: map[netip.AddrPort][]wire.NetAddress{target: book}, page: 4})
	known := map[netip.AddrPort]struct{}{target: {}}
	snap, err := c.Crawl(context.Background(), time.Unix(0, 0), []netip.AddrPort{target}, known)
	if err != nil {
		t.Fatal(err)
	}
	rep := snap.Reports[target]
	if rep.TotalSent != 2 || rep.ReachableSent != 1 || rep.UnreachableSent != 1 {
		t.Errorf("sent %d = %d reachable + %d unreachable, want 2 = 1 + 1",
			rep.TotalSent, rep.ReachableSent, rep.UnreachableSent)
	}
	if want := []netip.AddrPort{v4}; !reflect.DeepEqual(snap.Unreachable, want) {
		t.Errorf("Unreachable = %v, want %v", snap.Unreachable, want)
	}
}

// plainDialer serves its inner dialer's sessions behind the bare Session
// interface, hiding GetAddrIDs as an open-world backend would.
type plainDialer struct{ Dialer }

func (d plainDialer) Dial(addr netip.AddrPort) (Session, error) {
	sess, err := d.Dialer.Dial(addr)
	if err != nil {
		return nil, err
	}
	return struct{ Session }{sess}, nil
}

func TestCrawlIndexNeedsIDSessions(t *testing.T) {
	// An interned crawl lives in the Index's IDs: a session without
	// GetAddrIDs, or a target outside the Index, is a configuration
	// error that names the target, not a drain by address.
	u := smallUniverse(t)
	at := u.Params.Epoch.Add(10 * 24 * time.Hour)
	seedView := u.SeedViewAt(at)
	targets := TargetsOf(seedView)
	known := ReachableReference(seedView)
	namesTarget := func(err error, targets []netip.AddrPort) bool {
		for _, a := range targets {
			if strings.Contains(err.Error(), a.String()) {
				return true
			}
		}
		return false
	}
	for _, workers := range []int{1, 4} {
		_, err := New(Config{Workers: workers, Index: u.Index},
			plainDialer{NewUniverseView(u, at)}).Crawl(context.Background(), at, targets, known)
		if err == nil || !namesTarget(err, targets) {
			t.Errorf("workers=%d: address-only sessions on an Index crawl: err = %v, want one naming a target", workers, err)
		}
	}
	ghost := netip.MustParseAddrPort("203.0.113.77:8333")
	_, err := New(Config{Index: u.Index}, NewUniverseView(u, at)).
		Crawl(context.Background(), at, append(slices.Clone(targets), ghost), known)
	if err == nil || !namesTarget(err, []netip.AddrPort{ghost}) {
		t.Errorf("target outside the Index: err = %v, want one naming %v", err, ghost)
	}
}

func TestCrawlOpenWorldMatchesInterned(t *testing.T) {
	// The same popsim instant crawled through the dense index and through
	// the open-world sets must give the same snapshot; only the ID
	// slices, which need the index, differ.
	u := smallUniverse(t)
	at := u.Params.Epoch.Add(10 * 24 * time.Hour)
	seedView := u.SeedViewAt(at)
	targets := TargetsOf(seedView)
	known := ReachableReference(seedView)
	for _, workers := range []int{1, 4} {
		interned, err := New(Config{Workers: workers, Index: u.Index},
			NewUniverseView(u, at)).Crawl(context.Background(), at, targets, known)
		if err != nil {
			t.Fatal(err)
		}
		open, err := New(Config{Workers: workers},
			plainDialer{NewUniverseView(u, at)}).Crawl(context.Background(), at, targets, known)
		if err != nil {
			t.Fatal(err)
		}
		if len(interned.Unreachable) == 0 || len(interned.UnreachableIDs) != len(interned.Unreachable) {
			t.Fatalf("workers=%d: degenerate interned crawl: %d unreachable, %d IDs",
				workers, len(interned.Unreachable), len(interned.UnreachableIDs))
		}
		if open.UnreachableIDs != nil || open.ConnectedIDs != nil {
			t.Errorf("workers=%d: open-world crawl carries ID slices", workers)
		}
		if open.Dialed != interned.Dialed || !reflect.DeepEqual(open.Connected, interned.Connected) {
			t.Errorf("workers=%d: Connected differs: %d vs %d", workers, len(open.Connected), len(interned.Connected))
		}
		if !reflect.DeepEqual(open.Unreachable, interned.Unreachable) {
			t.Errorf("workers=%d: Unreachable differs: %d vs %d", workers, len(open.Unreachable), len(interned.Unreachable))
		}
		if !reflect.DeepEqual(open.Reports, interned.Reports) {
			t.Errorf("workers=%d: Reports differ", workers)
		}
		// The comparison covers SentOwnAddr, which the two paths derive
		// differently (ID against address), only if both of its values
		// occur among the connected reports.
		ownAddr := 0
		for _, rep := range interned.Reports {
			if rep.Connected && rep.SentOwnAddr {
				ownAddr++
			}
		}
		if ownAddr == 0 || len(interned.SuspectedMalicious(10)) == 0 {
			t.Fatalf("workers=%d: degenerate fixture: %d of %d connected sent their own address, %d suspected",
				workers, ownAddr, len(interned.Connected), len(interned.SuspectedMalicious(10)))
		}
		assertExactSize(t, fmt.Sprintf("interned workers=%d", workers), interned)
		assertExactSize(t, fmt.Sprintf("open workers=%d", workers), open)
	}
}

func TestPopSessionPagesMatchBook(t *testing.T) {
	// A session's GetAddr pages, up to the repeat page, render exactly
	// the station's book — as a multiset, timestamps included — and a
	// parallel session's GetAddrIDs pages are the same entries as dense
	// IDs, in the same order.
	u := smallUniverse(t)
	type entry struct {
		addr     netip.AddrPort
		services wire.ServiceFlag
		ts       int64
	}
	multiset := func(book []wire.NetAddress) []entry {
		out := make([]entry, len(book))
		for i, na := range book {
			out[i] = entry{na.Addr, na.Services, na.Timestamp.UnixNano()}
		}
		slices.SortFunc(out, func(a, b entry) int {
			if c := addridx.Compare(a.addr, b.addr); c != 0 {
				return c
			}
			return cmp.Compare(a.ts, b.ts)
		})
		return out
	}
	honest, malicious := 0, 0
	for day := 0; day < 60 && (honest < 8 || malicious == 0); day++ {
		at := u.Params.Epoch.Add(time.Duration(day) * netgen.CrawlInterval)
		view := NewUniverseView(u, at)
		for _, st := range u.Reachable {
			if st.Malicious && malicious > 0 || !st.Malicious && honest >= 8 {
				continue
			}
			sess, err := view.Dial(st.Addr)
			if err != nil {
				continue
			}
			twin, err := view.Dial(st.Addr)
			if err != nil {
				t.Fatalf("%v: second dial failed: %v", st.Addr, err)
			}
			want := u.AddrBookFrom(st.ID, at, view.online, view.visible)
			var got []wire.NetAddress
			var gotIDs []addridx.ID
			for len(got) < len(want) {
				page, err := sess.GetAddr()
				if err != nil {
					t.Fatal(err)
				}
				ids, err := twin.(SessionWithIDs).GetAddrIDs()
				if err != nil {
					t.Fatal(err)
				}
				if len(page) == 0 || len(ids) != len(page) {
					t.Fatalf("%v: page of %d addresses, %d IDs", st.Addr, len(page), len(ids))
				}
				got = append(got, page...)
				gotIDs = append(gotIDs, ids...)
			}
			if len(got) != len(want) {
				t.Fatalf("%v: pages hold %d entries, book %d", st.Addr, len(got), len(want))
			}
			repeat, err := sess.GetAddr()
			if err != nil || len(repeat) == 0 || repeat[0] != got[0] {
				t.Fatalf("%v: page after the book is not the repeat page", st.Addr)
			}
			if !reflect.DeepEqual(multiset(got), multiset(want)) {
				t.Errorf("%v (malicious %v): pages differ from AddrBookFrom", st.Addr, st.Malicious)
			}
			for k, na := range got {
				if id, _ := u.Index.Lookup(na.Addr); gotIDs[k] != id {
					t.Fatalf("%v: GetAddrIDs entry %d = %d, want %d", st.Addr, k, gotIDs[k], id)
				}
			}
			sess.Close()
			twin.Close()
			if st.Malicious {
				malicious++
			} else {
				honest++
			}
		}
	}
	if honest < 8 || malicious == 0 {
		t.Fatalf("sampled %d honest and %d malicious stations", honest, malicious)
	}
}

// --- popsim backend integration -----------------------------------------

func smallUniverse(t *testing.T) *netgen.Universe {
	t.Helper()
	u, err := netgen.Generate(netgen.DefaultParams(7, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestUniverseViewCrawl(t *testing.T) {
	u := smallUniverse(t)
	at := u.Params.Epoch.Add(10 * 24 * time.Hour)
	view := NewUniverseView(u, at)
	seedView := u.SeedViewAt(at)
	targets := TargetsOf(seedView)
	known := ReachableReference(seedView)

	c := New(Config{}, view)
	snap, err := c.Crawl(context.Background(), at, targets, known)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Connected) == 0 {
		t.Fatal("no nodes connected")
	}
	// Connection success rate should be below 1 (stale listings).
	rate := float64(len(snap.Connected)) / float64(snap.Dialed)
	if rate > 0.95 {
		t.Errorf("connect rate = %.2f; expected failures from stale listings", rate)
	}
	if rate < 0.5 {
		t.Errorf("connect rate = %.2f; too many failures", rate)
	}
	// Collected unreachable set should approach the visible pool.
	coverage := float64(len(snap.Unreachable)) / float64(len(view.visible))
	if coverage < 0.5 {
		t.Errorf("unreachable coverage = %.2f, want most of the pool", coverage)
	}
	// Composition should be near the planted 14.9/85.1 split.
	r, unr := snap.AddrComposition()
	if r < 0.08 || r > 0.25 {
		t.Errorf("reachable composition = %.3f, want ≈0.149", r)
	}
	if unr < 0.75 {
		t.Errorf("unreachable composition = %.3f, want ≈0.851", unr)
	}
}

func TestUniverseViewScan(t *testing.T) {
	u := smallUniverse(t)
	at := u.Params.Epoch.Add(10 * 24 * time.Hour)
	view := NewUniverseView(u, at)

	var targets []netip.AddrPort
	wantResponsive := 0
	for _, s := range u.Unreachable {
		if !s.VisibleAt(at) {
			continue
		}
		targets = append(targets, s.Addr)
		if s.Class == netgen.ClassResponsive {
			wantResponsive++
		}
	}
	res, err := ScanWith(context.Background(), ScanConfig{Workers: 1}, at, view, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responsive) != wantResponsive {
		t.Errorf("responsive = %d, want %d", len(res.Responsive), wantResponsive)
	}
}

// stationOutcome is the probe outcome the station model gives st at t.
func stationOutcome(st *netgen.Station, t time.Time) ProbeOutcome {
	switch {
	case st.Class == netgen.ClassReachable && st.OnlineAt(t):
		return ProbeReachable
	case st.Class == netgen.ClassResponsive && st.VisibleAt(t):
		return ProbeResponsive
	}
	return ProbeSilent
}

func TestUniverseViewProbeIDMatchesProbe(t *testing.T) {
	// For every station, on both sides of each edge of its visibility
	// window or online sessions, the ID probe, the address probe and the
	// station model agree. Only the instant matters to a probe, so each
	// edge gets a copy of one view with the instant moved.
	u := smallUniverse(t)
	base := NewUniverseView(u, u.Params.Epoch)
	check := func(st *netgen.Station, edge time.Time) {
		t.Helper()
		for _, at := range []time.Time{edge.Add(-time.Nanosecond), edge} {
			v := *base
			v.at, v.tn = at, netgen.UnixNano(at)
			want := stationOutcome(st, at)
			byID, err := v.ProbeID(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			byAddr, err := v.Probe(u.Index.Addr(st.ID))
			if err != nil {
				t.Fatal(err)
			}
			if byID != want || byAddr != want {
				t.Fatalf("station %d (%v) at %v: ProbeID %v, Probe %v, model %v", st.ID, st.Class, at, byID, byAddr, want)
			}
		}
	}
	responsive := 0
	for _, st := range u.Reachable {
		for _, iv := range st.Sessions {
			check(st, iv.Start)
			check(st, iv.End)
		}
	}
	for _, st := range u.Unreachable {
		check(st, st.Visible.Start)
		check(st, st.Visible.End)
		if st.Class == netgen.ClassResponsive {
			responsive++
		}
	}
	if responsive == 0 {
		t.Fatal("the universe has no responsive station")
	}
	ghost := netip.AddrPortFrom(netip.MustParseAddr("203.0.113.99"), 8333)
	if _, ok := u.Index.Lookup(ghost); ok {
		t.Fatal("the ghost address is in the universe")
	}
	if o, err := base.Probe(ghost); err != nil || o != ProbeSilent {
		t.Errorf("Probe(%v) = %v, %v; want silent", ghost, o, err)
	}
	for _, id := range []addridx.ID{addridx.None, addridx.ID(u.Index.Len())} {
		if o, err := base.ProbeID(id); err != nil || o != ProbeSilent {
			t.Errorf("ProbeID(%d) = %v, %v; want silent", id, o, err)
		}
	}
}

func TestScanWithIDsMatchesAddrs(t *testing.T) {
	// A scan by ID finds what the scan by address finds, with
	// ResponsiveIDs parallel to Responsive. The targets are every
	// unreachable station and every reachable one, online or not.
	u := smallUniverse(t)
	at := u.Params.Epoch.Add(10 * 24 * time.Hour)
	view := NewUniverseView(u, at)
	var addrs []netip.AddrPort
	var ids []addridx.ID
	for id := range addridx.ID(u.Index.Len()) {
		addrs = append(addrs, u.Index.Addr(id))
		ids = append(ids, id)
	}
	for _, workers := range []int{1, 3} {
		plain, err := ScanWith(context.Background(), ScanConfig{Workers: workers}, at, view, addrs)
		if err != nil {
			t.Fatal(err)
		}
		withIDs, err := ScanWith(context.Background(), ScanConfig{Workers: workers, IDs: ids}, at, view, addrs)
		if err != nil {
			t.Fatal(err)
		}
		if plain.ResponsiveIDs != nil {
			t.Errorf("workers=%d: a scan without IDs has %d ResponsiveIDs", workers, len(plain.ResponsiveIDs))
		}
		if len(plain.Responsive) == 0 || len(plain.ReachableSurprises) == 0 {
			t.Fatalf("workers=%d: %d responsive, %d reachable: the fixture is degenerate",
				workers, len(plain.Responsive), len(plain.ReachableSurprises))
		}
		if withIDs.Probed != plain.Probed || withIDs.ProbeErrors != plain.ProbeErrors ||
			!slices.Equal(withIDs.Responsive, plain.Responsive) ||
			!slices.Equal(withIDs.ReachableSurprises, plain.ReachableSurprises) {
			t.Fatalf("workers=%d: by ID %d probed, %d responsive, %d reachable; by address %d, %d, %d", workers,
				withIDs.Probed, len(withIDs.Responsive), len(withIDs.ReachableSurprises),
				plain.Probed, len(plain.Responsive), len(plain.ReachableSurprises))
		}
		if len(withIDs.ResponsiveIDs) != len(withIDs.Responsive) {
			t.Fatalf("workers=%d: %d ResponsiveIDs for %d responsive", workers, len(withIDs.ResponsiveIDs), len(withIDs.Responsive))
		}
		for k, id := range withIDs.ResponsiveIDs {
			if u.Index.Addr(id) != withIDs.Responsive[k] {
				t.Fatalf("workers=%d: ResponsiveIDs[%d] = %d is %v, Responsive[%d] is %v",
					workers, k, id, u.Index.Addr(id), k, withIDs.Responsive[k])
			}
		}
	}
	if _, err := ScanWith(context.Background(), ScanConfig{IDs: ids[1:]}, at, view, addrs); err == nil {
		t.Error("a scan with fewer IDs than targets succeeded")
	}
}

func TestUniverseViewDialSemantics(t *testing.T) {
	u := smallUniverse(t)
	at := u.Params.Epoch.Add(5 * 24 * time.Hour)
	view := NewUniverseView(u, at)
	// Dialing an unreachable station must fail.
	for _, s := range u.Unreachable[:5] {
		if _, err := view.Dial(s.Addr); err == nil {
			t.Fatalf("dial to unreachable %v succeeded", s.Addr)
		}
	}
	// Dialing an unknown address must fail.
	ghost := netip.AddrPortFrom(netip.MustParseAddr("203.0.113.99"), 8333)
	if _, err := view.Dial(ghost); err == nil {
		t.Error("dial to unknown address succeeded")
	}
	// Dialing an offline reachable station must fail.
	for _, s := range u.Reachable {
		if !s.OnlineAt(at) {
			if _, err := view.Dial(s.Addr); err == nil {
				t.Error("dial to offline station succeeded")
			}
			break
		}
	}
}

func TestUniverseViewMaliciousDetection(t *testing.T) {
	u, err := netgen.Generate(netgen.DefaultParams(8, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	at := u.Params.Epoch.Add(10 * 24 * time.Hour)
	view := NewUniverseView(u, at)
	seedView := u.SeedViewAt(at)
	c := New(Config{}, view)
	snap, err := c.Crawl(context.Background(), at, TargetsOf(seedView), ReachableReference(seedView))
	if err != nil {
		t.Fatal(err)
	}
	suspects := snap.SuspectedMalicious(5)
	planted := 0
	for _, s := range u.Reachable {
		if s.Malicious && !s.Critical {
			planted++
		}
	}
	if len(suspects) == 0 {
		t.Fatalf("no suspects found; planted %d", planted)
	}
	// Every suspect must actually be a planted flooder (no false
	// positives at this threshold).
	for _, rep := range suspects {
		st := u.ByAddr(rep.Addr)
		if st == nil || !st.Malicious {
			t.Errorf("false positive: %v flagged", rep.Addr)
		}
	}
	// Detection should find most planted flooders (they are persistent,
	// so they are online and dialable).
	if len(suspects) < planted*6/10 {
		t.Errorf("found %d of %d planted flooders", len(suspects), planted)
	}
}

func TestProbeOutcomeString(t *testing.T) {
	for _, o := range []ProbeOutcome{ProbeSilent, ProbeResponsive, ProbeReachable, ProbeOutcome(9)} {
		if o.String() == "" {
			t.Errorf("empty string for outcome %d", int(o))
		}
	}
}

func TestUniverseViewAccessors(t *testing.T) {
	u := smallUniverse(t)
	at := u.Params.Epoch.Add(24 * time.Hour)
	view := NewUniverseView(u, at)
	if !view.at.Equal(at) {
		t.Error("At mismatch")
	}
	if len(view.online) <= 0 || len(view.visible) <= 0 {
		t.Error("empty pools")
	}
	sess, err := view.Dial(TargetsOf(u.SeedViewAt(at))[0])
	if err != nil {
		// The first dialable target may be offline-at-t or refused;
		// find one that works.
		for _, tgt := range TargetsOf(u.SeedViewAt(at)) {
			if sess, err = view.Dial(tgt); err == nil {
				break
			}
		}
	}
	if err != nil {
		t.Fatalf("no dialable targets: %v", err)
	}
	if !sess.Remote().IsValid() {
		t.Error("invalid Remote()")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.GetAddr(); err == nil {
		t.Error("GetAddr on closed session should fail")
	}
}

func TestUniverseViewProbeOfflineReachable(t *testing.T) {
	u := smallUniverse(t)
	at := u.Params.Epoch.Add(24 * time.Hour)
	view := NewUniverseView(u, at)
	for _, s := range u.Reachable {
		if !s.OnlineAt(at) {
			out, err := view.Probe(s.Addr)
			if err != nil {
				t.Fatal(err)
			}
			if out != ProbeSilent {
				t.Errorf("offline reachable probe = %v, want silent", out)
			}
			return
		}
	}
	t.Skip("no offline reachable station found")
}

func TestAddrCompositionEmpty(t *testing.T) {
	// Zero-observation composition must be 0/0, not NaN — an empty
	// snapshot's shares feed straight into CSVs.
	empty := &Snapshot{Reports: map[netip.AddrPort]*NodeReport{}}
	r, u := empty.AddrComposition()
	if r != 0 || u != 0 {
		t.Errorf("empty composition = %v/%v, want 0/0", r, u)
	}
	// Same with a report present but nothing collected.
	empty.Reports[tAddr(1)] = &NodeReport{Addr: tAddr(1), Connected: true}
	r, u = empty.AddrComposition()
	if r != 0 || u != 0 {
		t.Errorf("zero-sent composition = %v/%v, want 0/0", r, u)
	}
}
