// Package crawler implements the paper's measurement apparatus (§III,
// Figure 2): the address crawler that bootstraps from the Bitnodes and
// DNS-seeder databases, the network crawler that drains each reachable
// node's address tables through iterative GETADDR exchanges
// (Algorithm 1), and the scanner that classifies unreachable addresses as
// responsive or silent by probing them with a VER message (Algorithm 2).
//
// The crawler is generic over a Dialer/Prober pair. Two backends exist:
// the popsim backend over a netgen.Universe (snapshot-level, fast enough
// for 60-day × 700K-address reproductions) and the tcpnet backend (real
// sockets speaking the real wire protocol).
//
// Both the crawl and the scan fan their per-target loops out through
// internal/par and merge results in target order, so output is
// byte-identical at any worker count. A crawl lives in one address
// space, chosen once by Config.Index. An interned crawl (the popsim
// backend) holds dense station IDs of the Index from its targets to its
// merge, which alone builds addresses; an open-world crawl (tcpnet)
// holds addresses only, in pointer-free addridx.Seen sets. Address-keyed
// maps remain only at the API boundary: Crawl's known-reachable argument
// and Snapshot.Reports.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"time"

	"repro/internal/addridx"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/wire"
)

// Session is an established connection to a reachable node, able to
// perform repeated GETADDR→ADDR exchanges.
type Session interface {
	// Remote returns the peer's address.
	Remote() netip.AddrPort
	// GetAddr performs one GETADDR→ADDR exchange and returns the
	// received addresses. The returned slice may be the session's reused
	// decode buffer: it is valid only until the next GetAddr or Close
	// call, and callers that retain addresses across calls must copy
	// what they keep (drainNode consumes each page before the next).
	GetAddr() ([]wire.NetAddress, error)
	// Close releases the session.
	Close() error
}

// SessionWithIDs is the Session extension an interned crawl requires:
// GetAddrIDs performs one GETADDR→ADDR exchange and returns the page as
// dense IDs of the crawler's Config.Index, never addridx.None, so the
// crawler drains the node without resolving — or even building — a
// single address. The slice follows GetAddr's borrowed-buffer contract.
// With Config.Index set, every session must implement it; a crawl
// without an Index never calls it.
type SessionWithIDs interface {
	GetAddrIDs() ([]addridx.ID, error)
}

// Dialer opens crawl sessions. Dial must be safe for concurrent use:
// the crawl fans targets out across workers.
type Dialer interface {
	// Dial connects to a reachable address; it returns an error when the
	// node is gone, refuses, or times out.
	Dial(addr netip.AddrPort) (Session, error)
}

// ProbeOutcome classifies a scanner probe (Algorithm 2).
type ProbeOutcome int

// Probe outcomes.
const (
	// ProbeSilent targets never answered.
	ProbeSilent ProbeOutcome = iota + 1
	// ProbeResponsive targets answered the VER probe by closing the
	// connection: an unreachable node running Bitcoin.
	ProbeResponsive
	// ProbeReachable targets accepted the connection outright.
	ProbeReachable
)

// String returns the outcome name.
func (o ProbeOutcome) String() string {
	switch o {
	case ProbeSilent:
		return "silent"
	case ProbeResponsive:
		return "responsive"
	case ProbeReachable:
		return "reachable"
	default:
		return "unknown"
	}
}

// Prober sends the scanner's VER probe. Probe must be safe for
// concurrent use: the scan fans targets out across workers.
type Prober interface {
	// Probe classifies the endpoint at addr.
	Probe(addr netip.AddrPort) (ProbeOutcome, error)
}

// ProberWithIDs is the Prober extension a scan with ScanConfig.IDs
// requires: ProbeID classifies the endpoint with a dense ID of the
// addridx.Index the IDs refer to exactly as Probe classifies its
// address, without resolving the address. Like Probe, it must be safe
// for concurrent use.
type ProberWithIDs interface {
	ProbeID(id addridx.ID) (ProbeOutcome, error)
}

// maxGetAddrRounds caps the Algorithm 1 repeat loop per node.
const maxGetAddrRounds = 50

// Config parameterizes a crawler.
type Config struct {
	// Workers is the crawl fan-out width; zero or negative means
	// GOMAXPROCS. Results are merged in target order and are
	// byte-identical at any width.
	Workers int
	// Index, when set, makes the crawl interned: every target must be in
	// it and every session must implement SessionWithIDs, the crawl
	// dedups in dense arrays and bitsets over its IDs, and snapshots
	// carry parallel ID slices. The popsim backend always provides it;
	// backends whose address space is open (tcpnet) leave it nil, and the
	// crawl then holds addresses only.
	Index *addridx.Index
	// Metrics, when set, receives the crawl reachability series
	// (crawl.* counters: dials, connections, GETADDR rounds, address
	// composition; crawl.workers / crawl.targets.pending gauges for
	// live progress). Nil disables instrumentation.
	Metrics *obs.Registry
}

// NodeReport is the per-reachable-node crawl record.
type NodeReport struct {
	// Addr is the crawled node.
	Addr netip.AddrPort
	// Connected reports whether the dial succeeded.
	Connected bool
	// Rounds is the number of GETADDR exchanges performed.
	Rounds int
	// TotalSent counts all addresses received from the node (with
	// repetition across rounds deduplicated).
	TotalSent int
	// ReachableSent and UnreachableSent split TotalSent against the
	// known-reachable reference set.
	ReachableSent   int
	UnreachableSent int
	// SentOwnAddr reports whether the node advertised itself — honest
	// nodes always do; its absence is the §IV-B malice heuristic.
	SentOwnAddr bool
	// CloseErr records a session-teardown failure after a successful
	// drain. The drained data is kept: a failed FIN must not discard an
	// experiment.
	CloseErr string
}

// Snapshot is the outcome of one crawl experiment.
type Snapshot struct {
	// Time is the experiment's nominal time.
	Time time.Time
	// Dialed is the number of dial attempts.
	Dialed int
	// Connected lists nodes that accepted and completed the crawl, in
	// target order.
	Connected []netip.AddrPort
	// ConnectedIDs holds the Index IDs of Connected, parallel to it. It
	// is nil when the crawler has no Index.
	ConnectedIDs []addridx.ID
	// Reports holds the per-node records, keyed by address.
	Reports map[netip.AddrPort]*NodeReport
	// Unreachable is the deduplicated list of collected addresses that
	// are not in the known-reachable reference set (the paper's N_u),
	// in deterministic first-seen order: targets in crawl order,
	// addresses in receipt order within a target.
	Unreachable []netip.AddrPort
	// UnreachableIDs holds the Index IDs of Unreachable, parallel to it,
	// and is nil without an Index. An interned crawl carries IDs only,
	// and Unreachable is built from them at the merge, through
	// Index.Addr.
	UnreachableIDs []addridx.ID
}

// Crawler drives crawl experiments over a backend.
type Crawler struct {
	cfg    Config
	dialer Dialer

	// Metric handles, nil-safe no-ops when Config.Metrics is nil.
	mDials        *obs.Counter
	mConnected    *obs.Counter
	mRounds       *obs.Counter
	mAddrsTotal   *obs.Counter
	mAddrsReach   *obs.Counter
	mAddrsUnreach *obs.Counter
	mWorkers      *obs.Gauge
	mPending      *obs.Gauge
}

// New creates a crawler over the given dialer.
func New(cfg Config, dialer Dialer) *Crawler {
	return &Crawler{
		cfg:    cfg,
		dialer: dialer,

		mDials:        cfg.Metrics.Counter("crawl.dials"),
		mConnected:    cfg.Metrics.Counter("crawl.connected"),
		mRounds:       cfg.Metrics.Counter("crawl.getaddr.rounds"),
		mAddrsTotal:   cfg.Metrics.Counter("crawl.addrs.total"),
		mAddrsReach:   cfg.Metrics.Counter("crawl.addrs.reachable"),
		mAddrsUnreach: cfg.Metrics.Counter("crawl.addrs.unreachable"),
		mWorkers:      cfg.Metrics.Gauge("crawl.workers"),
		mPending:      cfg.Metrics.Gauge("crawl.targets.pending"),
	}
}

// Crawl runs Algorithm 1 against every address in targets: connect, issue
// GETADDR until a response adds nothing new, classify each collected
// address against knownReachable, and accumulate the unreachable set.
// Targets are crawled concurrently on Config.Workers workers and merged
// in target order; ctx cancellation aborts mid-crawl with ctx.Err(). An
// interned crawl also fails, naming a target, if the target is outside
// Config.Index or its session has no GetAddrIDs.
func (c *Crawler) Crawl(ctx context.Context, at time.Time, targets []netip.AddrPort,
	knownReachable map[netip.AddrPort]struct{}) (*Snapshot, error) {
	if len(targets) == 0 {
		return nil, errors.New("crawler: no targets")
	}
	workers := par.Workers(c.cfg.Workers)
	if workers > len(targets) {
		workers = len(targets)
	}
	sp, err := newSpace(c.cfg.Index, workers, targets, knownReachable)
	if err != nil {
		return nil, err
	}
	c.mWorkers.Set(int64(workers))
	c.mPending.Set(int64(len(targets)))

	// One slab holds every target's report; Snapshot.Reports points
	// into it.
	reports := make([]NodeReport, len(targets))
	err = par.ForEach(ctx, workers, len(targets), func(ctx context.Context, i int) error {
		err := c.crawlTarget(sp, i, targets[i], &reports[i])
		c.mPending.Add(-1)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Merge: fold the reports into the snapshot in target order, then
	// let the space append the unreachable union.
	snap := &Snapshot{
		Time:    at,
		Dialed:  len(targets),
		Reports: make(map[netip.AddrPort]*NodeReport, len(targets)),
	}
	for i := range reports {
		rep := &reports[i]
		snap.Reports[rep.Addr] = rep
		if !rep.Connected {
			continue
		}
		if snap.Connected == nil {
			// Connected is bounded by the target count: reserve it
			// whole rather than paying append's growth churn.
			snap.Connected = make([]netip.AddrPort, 0, len(targets))
		}
		snap.Connected = append(snap.Connected, rep.Addr)
	}
	sp.merge(snap, reports)
	c.mPending.Set(0)
	return snap, nil
}

// crawlTarget dials target i and drains it through the crawl's space
// into its private report. It returns only a configuration error.
func (c *Crawler) crawlTarget(sp space, i int, target netip.AddrPort, report *NodeReport) error {
	c.mDials.Inc()
	report.Addr = target
	sess, err := c.dialer.Dial(target)
	if err != nil {
		// A failed dial is a finding, recorded as !report.Connected.
		return nil
	}
	report.Connected = true
	c.mConnected.Inc()
	err = sp.drain(c, i, sess, report)
	if cerr := sess.Close(); cerr != nil {
		// Teardown failed after a successful drain: record it on the
		// report and keep the snapshot.
		report.CloseErr = cerr.Error()
	}
	return err
}

// drain is Algorithm 1's repeat loop for one node. page performs one
// GETADDR exchange and dedups the answer against the node's earlier
// pages, returning how many entries were new and how many of those are
// unreachable. A page that adds nothing means the node's tables are
// drained; a failed exchange ends the drain with what it has.
func (c *Crawler) drain(report *NodeReport, page func() (fresh, unreachable int, err error)) {
	for round := 0; round < maxGetAddrRounds; round++ {
		fresh, unreachable, err := page()
		if err != nil {
			return
		}
		report.Rounds++
		report.TotalSent += fresh
		report.ReachableSent += fresh - unreachable
		report.UnreachableSent += unreachable
		c.mRounds.Inc()
		c.mAddrsTotal.Add(int64(fresh))
		c.mAddrsReach.Add(int64(fresh - unreachable))
		c.mAddrsUnreach.Add(int64(unreachable))
		if fresh == 0 {
			return
		}
	}
}

// space is one crawl's address space, chosen once by Config.Index:
// idSpace for an interned crawl, addrSpace for an open-world one. It
// holds the known-reachable set, the workers' dedup scratch and the
// targets' unreachable lists in its own element type, so no operation
// asks which space an entry is in. Workers write only their own target's
// list; the merge alone reads across targets, which is what keeps the
// snapshot byte-identical at any worker count. A worker takes its
// scratch from the space's free list, or makes one when every scratch is
// in use, so a crawl makes at most one scratch per worker.
type space interface {
	// drain runs Algorithm 1 over target i's open session, counting into
	// its report and keeping its unreachable entries for the merge.
	drain(c *Crawler, i int, sess Session, report *NodeReport) error
	// merge sets the snapshot's unreachable union, in first-seen order
	// (targets in crawl order, receipt order within a target), and its
	// ID slices where the space has IDs.
	merge(snap *Snapshot, reports []NodeReport)
}

// idSpace is an interned crawl: targets, pages, dedup sets and the
// targets' lists are IDs of idx, and an address is built only at the
// merge.
type idSpace struct {
	idx     *addridx.Index
	targets []addridx.ID // targets[i] is target i's ID
	known   *addridx.Set
	jobs    [][]addridx.ID  // jobs[i] lists target i's unreachable IDs
	free    chan *idScratch // idle scratch; capacity workers, the most a crawl makes
}

// idScratch is a worker's scratch for one target of an interned crawl.
// The node's dedup set is epoch-versioned (epochs[id] == epoch ⇔ id is a
// member), so clearing it per target is one increment, not a memclr of
// an index-sized table, which was a measurable slice of crawl CPU. The
// target's unreachable IDs collect in receipt order, in a buffer that
// grows to the worker's largest target once.
type idScratch struct {
	epochs      []uint32
	epoch       uint32
	unreachable []addridx.ID
}

// addrSpace is an open-world crawl: every set and list holds addresses,
// under addridx.Seen's key equality, and no ID is made.
type addrSpace struct {
	known addridx.Seen
	jobs  [][]netip.AddrPort // jobs[i] lists target i's unreachable addresses
	free  chan *addrScratch  // as idSpace.free
}

// addrScratch is idScratch for an open-world crawl; Seen's epochs clear
// it the same way.
type addrScratch struct {
	seen        addridx.Seen
	unreachable []netip.AddrPort
}

// newSpace resolves the crawl's targets and known-reachable set in the
// space idx chooses: an interned one when idx is set, else an open one.
func newSpace(idx *addridx.Index, workers int, targets []netip.AddrPort,
	known map[netip.AddrPort]struct{}) (space, error) {
	if idx == nil {
		s := &addrSpace{jobs: make([][]netip.AddrPort, len(targets)), free: make(chan *addrScratch, workers)}
		s.known.Reserve(len(known))
		for a := range known {
			s.known.Add(a)
		}
		return s, nil
	}
	s := &idSpace{
		idx:     idx,
		targets: make([]addridx.ID, len(targets)),
		known:   addridx.NewSet(idx.Len()),
		jobs:    make([][]addridx.ID, len(targets)),
		free:    make(chan *idScratch, workers),
	}
	for i, a := range targets {
		id, ok := idx.Lookup(a)
		if !ok {
			return nil, fmt.Errorf("crawler: target %v is outside the crawl's Index", a)
		}
		s.targets[i] = id
	}
	// A known address outside the Index can never equal a served ID.
	for a := range known {
		if id, ok := idx.Lookup(a); ok {
			s.known.Add(id)
		}
	}
	return s, nil
}

func (s *idSpace) drain(c *Crawler, i int, sess Session, report *NodeReport) error {
	idSess, ok := sess.(SessionWithIDs)
	if !ok {
		return fmt.Errorf("crawler: session to %v serves no station IDs, which a crawl with an Index needs", report.Addr)
	}
	var w *idScratch
	select {
	case w = <-s.free:
	default:
		w = &idScratch{epochs: make([]uint32, s.idx.Len()), epoch: 1}
	}
	self := s.targets[i]
	c.drain(report, func() (fresh, unreachable int, err error) {
		page, err := idSess.GetAddrIDs()
		if err != nil {
			return 0, 0, err
		}
		for _, id := range page {
			if w.epochs[id] == w.epoch {
				continue
			}
			w.epochs[id] = w.epoch
			fresh++
			if id == self {
				report.SentOwnAddr = true
			}
			if !s.known.Contains(id) {
				w.unreachable = append(w.unreachable, id)
				unreachable++
			}
		}
		return fresh, unreachable, nil
	})
	s.jobs[i] = slices.Clone(w.unreachable)
	w.unreachable = w.unreachable[:0]
	if w.epoch++; w.epoch == 0 {
		// Epoch wrapped: pay the one-in-four-billion full reset.
		clear(w.epochs)
		w.epoch = 1
	}
	s.free <- w
	return nil
}

func (s *addrSpace) drain(c *Crawler, i int, sess Session, report *NodeReport) error {
	var w *addrScratch
	select {
	case w = <-s.free:
	default:
		w = new(addrScratch)
	}
	// The self check uses Seen's key equality, as an interned crawl's
	// ID comparison does: a 4-in-6 spelling of the target is the target.
	self, selfPort := report.Addr.Addr().As16(), report.Addr.Port()
	c.drain(report, func() (fresh, unreachable int, err error) {
		page, err := sess.GetAddr()
		if err != nil {
			return 0, 0, err
		}
		for k := range page {
			a := page[k].Addr
			if !w.seen.Add(a) {
				continue
			}
			fresh++
			if a.Port() == selfPort && a.Addr().As16() == self {
				report.SentOwnAddr = true
			}
			if !s.known.Contains(a) {
				w.unreachable = append(w.unreachable, a)
				unreachable++
			}
		}
		return fresh, unreachable, nil
	})
	s.jobs[i] = slices.Clone(w.unreachable)
	w.unreachable = w.unreachable[:0]
	w.seen.Clear()
	s.free <- w
	return nil
}

// merge compacts each target's list in place, in target order, down to
// the IDs new to the whole crawl, then allocates the union once, at
// exactly the kept total, building each address from the Index.
func (s *idSpace) merge(snap *Snapshot, reports []NodeReport) {
	if len(snap.Connected) > 0 {
		snap.ConnectedIDs = make([]addridx.ID, 0, len(snap.Connected))
		for i := range reports {
			if reports[i].Connected {
				snap.ConnectedIDs = append(snap.ConnectedIDs, s.targets[i])
			}
		}
	}
	global := addridx.NewSet(s.idx.Len())
	total := 0
	for i, job := range s.jobs {
		kept := 0
		for _, id := range job {
			if global.Add(id) {
				job[kept] = id
				kept++
			}
		}
		s.jobs[i] = job[:kept]
		total += kept
	}
	if total == 0 {
		return
	}
	snap.Unreachable = make([]netip.AddrPort, 0, total)
	snap.UnreachableIDs = make([]addridx.ID, 0, total)
	for _, job := range s.jobs {
		for _, id := range job {
			snap.Unreachable = append(snap.Unreachable, s.idx.Addr(id))
		}
		snap.UnreachableIDs = append(snap.UnreachableIDs, job...)
	}
}

// merge is idSpace's merge over addresses; the crawl-wide Seen is
// reserved for the summed list lengths first, so it never grows.
func (s *addrSpace) merge(snap *Snapshot, _ []NodeReport) {
	var global addridx.Seen
	sum := 0
	for _, job := range s.jobs {
		sum += len(job)
	}
	global.Reserve(sum)
	total := 0
	for i, job := range s.jobs {
		kept := 0
		for _, a := range job {
			if global.Add(a) {
				job[kept] = a
				kept++
			}
		}
		s.jobs[i] = job[:kept]
		total += kept
	}
	if total == 0 {
		return
	}
	snap.Unreachable = make([]netip.AddrPort, 0, total)
	for _, job := range s.jobs {
		snap.Unreachable = append(snap.Unreachable, job...)
	}
}

// ScanConfig bounds scanner behaviour.
type ScanConfig struct {
	// Workers is the probe fan-out width; zero or negative means
	// GOMAXPROCS. Results are merged in target order and are
	// byte-identical at any width.
	Workers int
	// Metrics, when set, receives the crawl.probe.errors counter.
	Metrics *obs.Registry
	// IDs, when set, holds the targets' dense IDs, parallel to the
	// addresses. The prober must then implement ProberWithIDs, and every
	// target is probed by its ID. The result's ResponsiveIDs is taken
	// from them.
	IDs []addridx.ID
}

// ScanResult is the outcome of one Algorithm 2 scan.
type ScanResult struct {
	// Time is the scan's nominal time.
	Time time.Time
	// Probed is the number of probes issued, including failed ones.
	Probed int
	// ProbeErrors counts probes that failed outright (socket errors,
	// not silence). Failed probes are skipped, mirroring how the crawl
	// tolerates dial failures.
	ProbeErrors int
	// Responsive lists addresses that answered the VER probe.
	Responsive []netip.AddrPort
	// ResponsiveIDs holds the ScanConfig.IDs entries parallel to
	// Responsive; it is nil when the scan had no IDs.
	ResponsiveIDs []addridx.ID
	// ReachableSurprises lists addresses that accepted outright (they
	// were misclassified as unreachable).
	ReachableSurprises []netip.AddrPort
}

// ScanWith runs Algorithm 2 with explicit fan-out and instrumentation:
// probe every address on cfg.Workers workers and collect the responsive
// ones in target order. Probe failures are counted and skipped — a
// single refused socket must not abort a 100K-address sweep — so the
// only errors returned are ctx cancellation and, before any probe, a
// cfg.IDs whose length is not the target count or whose prober has no
// ProbeID.
func ScanWith(ctx context.Context, cfg ScanConfig, at time.Time, prober Prober,
	addrs []netip.AddrPort) (*ScanResult, error) {
	var byID ProberWithIDs
	if cfg.IDs != nil {
		if len(cfg.IDs) != len(addrs) {
			return nil, fmt.Errorf("crawler: scan of %d targets given %d IDs", len(addrs), len(cfg.IDs))
		}
		var ok bool
		if byID, ok = prober.(ProberWithIDs); !ok {
			return nil, fmt.Errorf("crawler: scan given IDs, but the %T prober has no ProbeID", prober)
		}
	}
	// outcomes[i] is target i's ProbeOutcome in one byte; 0, which no
	// outcome takes, marks a failed probe.
	outcomes := make([]byte, len(addrs))
	mProbeErrs := cfg.Metrics.Counter("crawl.probe.errors")
	err := par.ForEach(ctx, par.Workers(cfg.Workers), len(addrs), func(ctx context.Context, i int) error {
		var outcome ProbeOutcome
		var err error
		if byID != nil {
			outcome, err = byID.ProbeID(cfg.IDs[i])
		} else {
			outcome, err = prober.Probe(addrs[i])
		}
		if err != nil {
			mProbeErrs.Inc()
			return nil
		}
		switch outcome {
		case ProbeResponsive, ProbeReachable:
			outcomes[i] = byte(outcome)
		default:
			outcomes[i] = byte(ProbeSilent)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Count first, so the result lists are allocated at their exact
	// sizes.
	res := &ScanResult{Time: at, Probed: len(addrs)}
	responsive, surprises := 0, 0
	for _, o := range outcomes {
		switch ProbeOutcome(o) {
		case 0:
			res.ProbeErrors++
		case ProbeResponsive:
			responsive++
		case ProbeReachable:
			surprises++
		}
	}
	if responsive > 0 {
		res.Responsive = make([]netip.AddrPort, 0, responsive)
		if cfg.IDs != nil {
			res.ResponsiveIDs = make([]addridx.ID, 0, responsive)
		}
	}
	if surprises > 0 {
		res.ReachableSurprises = make([]netip.AddrPort, 0, surprises)
	}
	for i, o := range outcomes {
		switch ProbeOutcome(o) {
		case ProbeResponsive:
			res.Responsive = append(res.Responsive, addrs[i])
			if cfg.IDs != nil {
				res.ResponsiveIDs = append(res.ResponsiveIDs, cfg.IDs[i])
			}
		case ProbeReachable:
			res.ReachableSurprises = append(res.ReachableSurprises, addrs[i])
		}
	}
	return res, nil
}

// SuspectedMalicious returns the crawled nodes matching the §IV-B
// heuristic: connected nodes whose ADDR responses contained no reachable
// address at all (an honest node always advertises at least itself).
// minSent filters out nodes that sent too few addresses to judge. The
// result is sorted by flood volume (then address) — the Reports map
// iteration feeding it has no stable order of its own.
func (s *Snapshot) SuspectedMalicious(minSent int) []*NodeReport {
	var out []*NodeReport
	for _, r := range s.Reports {
		if !r.Connected || r.TotalSent < minSent {
			continue
		}
		if r.ReachableSent == 0 && !r.SentOwnAddr {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].UnreachableSent != out[j].UnreachableSent {
			return out[i].UnreachableSent > out[j].UnreachableSent
		}
		return addridx.Compare(out[i].Addr, out[j].Addr) < 0
	})
	return out
}

// AddrComposition returns the aggregate reachable/unreachable shares of
// all collected addresses (the paper's 14.9% / 85.1% split).
func (s *Snapshot) AddrComposition() (reachable, unreachable float64) {
	var r, u int
	for _, rep := range s.Reports {
		r += rep.ReachableSent
		u += rep.UnreachableSent
	}
	total := r + u
	if total == 0 {
		return 0, 0
	}
	return float64(r) / float64(total), float64(u) / float64(total)
}
