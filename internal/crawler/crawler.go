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
// byte-identical at any worker count. When Config.Index interns the
// address universe (the popsim backend always does), every membership
// set on the hot path is a dense addridx bitset; addresses outside it
// (all of them on tcpnet) go into a pointer-free addridx.Seen. Address-
// keyed maps remain only at the API boundary: Crawl's known-reachable
// argument and Snapshot.Reports.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"sync"
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

// SessionWithIDs is an optional Session extension for backends whose
// address space is interned in the same addridx.Index the crawler was
// configured with: GetAddrIDs performs one GETADDR→ADDR exchange and
// returns the page as dense StationIDs only, never addridx.None, so the
// crawler drains the node without resolving — or even building — a
// single address. The slice follows GetAddr's borrowed-buffer contract.
// The crawler uses this path only when Config.Index is set; a backend
// must implement it only if every entry it serves is dense in that same
// index.
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

// ProberWithIDs is an optional Prober extension for backends whose
// address space is interned in the addridx.Index that ScanConfig.IDs
// refers to: ProbeID classifies the endpoint with that dense ID exactly
// as Probe classifies its address, without resolving the address.
// ScanWith uses it for every target whose ScanConfig.IDs entry is not
// addridx.None. Like Probe, it must be safe for concurrent use.
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
	// Index, when set, interns the address universe: membership sets on
	// the drain/dedup hot path become dense addridx bitsets instead of
	// hashed addridx.Seen sets, and snapshots carry parallel StationID
	// slices. The popsim backend always provides it; backends whose
	// address space is open (simnet, tcpnet) leave it nil.
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
	// ConnectedIDs holds dense station IDs parallel to Connected. It is
	// nil when the crawler has no Index; entries are addridx.None for
	// addresses outside the index.
	ConnectedIDs []addridx.ID
	// Reports holds the per-node records, keyed by address.
	Reports map[netip.AddrPort]*NodeReport
	// Unreachable is the deduplicated list of collected addresses that
	// are not in the known-reachable reference set (the paper's N_u),
	// in deterministic first-seen order: targets in crawl order,
	// addresses in receipt order within a target.
	Unreachable []netip.AddrPort
	// UnreachableIDs holds dense station IDs parallel to Unreachable,
	// under the same convention as ConnectedIDs. With an Index, the
	// crawl carries IDs and Unreachable is built from them at the
	// merge, through Index.Addr.
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

// knownView is the read-only membership view of the known-reachable
// reference set, resolved once per crawl: interned addresses collapse
// into a dense bitset probe, the rest into a Seen set.
type knownView struct {
	bits *addridx.Set
	rest addridx.Seen
}

func newKnownView(idx *addridx.Index, known map[netip.AddrPort]struct{}) *knownView {
	v := &knownView{}
	if idx != nil {
		v.bits = addridx.NewSet(idx.Len())
	}
	for a := range known {
		if id, ok := lookup(idx, a); ok {
			v.bits.Add(id)
		} else {
			v.rest.Add(a)
		}
	}
	return v
}

func (v *knownView) contains(addr netip.AddrPort, id addridx.ID) bool {
	if id != addridx.None && v.bits != nil {
		return v.bits.Contains(id)
	}
	return v.rest.Contains(addr)
}

// lookup resolves addr in idx, which may be nil.
func lookup(idx *addridx.Index, addr netip.AddrPort) (addridx.ID, bool) {
	if idx == nil {
		return addridx.None, false
	}
	return idx.Lookup(addr)
}

// memberSet is a mutable membership set over addresses: an
// epoch-versioned dense array for interned addresses, a Seen set for the
// rest (every address on tcpnet, none under popsim, where the whole
// universe is interned). Both halves are epoch-versioned, so clear is
// O(1) — the per-target "seen" set is cleared once per crawled node, and
// a full memset of an index-sized table per node was a measurable slice
// of crawl CPU.
// A worker's pooled set also carries the scratch in which drainNode
// collects one target's unreachable entries, so the buffers grow to the
// worker's largest target once, not once per target. With an Index the
// scratch holds IDs: unreachableIDs gets every entry, and only the
// entries outside the Index (ID None) also go to unreachable, in order.
// Without one, unreachable holds every entry and unreachableIDs stays
// empty.
type memberSet struct {
	idx    *addridx.Index
	epochs []uint32 // epochs[id] == epoch ⇔ id is a member
	epoch  uint32
	rest   addridx.Seen

	unreachable    []netip.AddrPort
	unreachableIDs []addridx.ID
}

func newMemberSet(idx *addridx.Index) *memberSet {
	m := &memberSet{epoch: 1}
	m.idx = idx
	if idx != nil {
		m.epochs = make([]uint32, idx.Len())
	}
	return m
}

// resolve returns addr's dense ID, or addridx.None.
func (m *memberSet) resolve(addr netip.AddrPort) addridx.ID {
	id, _ := lookup(m.idx, addr)
	return id
}

// add inserts addr (with its pre-resolved id) and reports whether it
// was newly added.
func (m *memberSet) add(addr netip.AddrPort, id addridx.ID) bool {
	if id != addridx.None {
		if m.epochs[id] == m.epoch {
			return false
		}
		m.epochs[id] = m.epoch
		return true
	}
	return m.rest.Add(addr)
}

func (m *memberSet) clear() {
	m.epoch++
	if m.epoch == 0 {
		// Epoch wrapped: pay the one-in-four-billion full reset.
		clear(m.epochs)
		m.epoch = 1
	}
	m.rest.Clear()
	m.unreachable = m.unreachable[:0]
	m.unreachableIDs = m.unreachableIDs[:0]
}

// crawlJob is one target's private crawl outcome — the Runner pattern:
// workers write only their own slot, the merge alone touches the
// snapshot, so output is byte-identical at any worker count. The job's
// NodeReport lives at the same index of the crawl's report slab.
type crawlJob struct {
	// unreachable and unreachableIDs are the job's own copy of the
	// worker's scratch, under memberSet's convention.
	unreachable    []netip.AddrPort
	unreachableIDs []addridx.ID
}

// Crawl runs Algorithm 1 against every address in targets: connect, issue
// GETADDR until a response adds nothing new, classify each collected
// address against knownReachable, and accumulate the unreachable set.
// Targets are crawled concurrently on Config.Workers workers and merged
// in target order; ctx cancellation aborts mid-crawl with ctx.Err().
func (c *Crawler) Crawl(ctx context.Context, at time.Time, targets []netip.AddrPort,
	knownReachable map[netip.AddrPort]struct{}) (*Snapshot, error) {
	if len(targets) == 0 {
		return nil, errors.New("crawler: no targets")
	}
	workers := par.Workers(c.cfg.Workers)
	if workers > len(targets) {
		workers = len(targets)
	}
	c.mWorkers.Set(int64(workers))
	c.mPending.Set(int64(len(targets)))

	known := newKnownView(c.cfg.Index, knownReachable)
	jobs := make([]crawlJob, len(targets))
	// One slab holds every target's report; Snapshot.Reports points
	// into it.
	reports := make([]NodeReport, len(targets))
	scratch := sync.Pool{New: func() any { return newMemberSet(c.cfg.Index) }}
	err := par.ForEach(ctx, workers, len(targets), func(ctx context.Context, i int) error {
		seen := scratch.Get().(*memberSet)
		c.crawlTarget(targets[i], known, seen, &reports[i], &jobs[i])
		seen.clear()
		scratch.Put(seen)
		c.mPending.Add(-1)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Merge, phase one: fold per-target reports into the snapshot in
	// target order. The per-job unreachable slices are left in place for
	// phase two, which sizes the aggregate exactly.
	snap := &Snapshot{
		Time:    at,
		Reports: make(map[netip.AddrPort]*NodeReport, len(targets)),
	}
	global := newMemberSet(c.cfg.Index)
	for i := range reports {
		rep := &reports[i]
		snap.Dialed++
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
		if c.cfg.Index != nil {
			if snap.ConnectedIDs == nil {
				snap.ConnectedIDs = make([]addridx.ID, 0, len(targets))
			}
			snap.ConnectedIDs = append(snap.ConnectedIDs, global.resolve(rep.Addr))
		}
	}
	// Merge, phase two: aggregate the unreachable sets in one pass. Each
	// job's slices are compacted in place, in target order, down to the
	// entries new to the whole crawl; the aggregate is then allocated
	// once, at exactly the kept total, and filled job by job, so
	// first-seen order is preserved.
	idx := c.cfg.Index
	total := 0
	if idx == nil {
		sum := 0
		for i := range jobs {
			sum += len(jobs[i].unreachable)
		}
		global.rest.Reserve(sum)
		for i := range jobs {
			job := &jobs[i]
			kept := 0
			for _, a := range job.unreachable {
				if global.add(a, addridx.None) {
					job.unreachable[kept] = a
					kept++
				}
			}
			job.unreachable = job.unreachable[:kept]
			total += kept
		}
	} else {
		for i := range jobs {
			job := &jobs[i]
			kept, side, keptSide := 0, 0, 0
			for _, id := range job.unreachableIDs {
				var a netip.AddrPort
				if id == addridx.None {
					a = job.unreachable[side]
					side++
				}
				if !global.add(a, id) {
					continue
				}
				job.unreachableIDs[kept] = id
				kept++
				if id == addridx.None {
					job.unreachable[keptSide] = a
					keptSide++
				}
			}
			job.unreachableIDs, job.unreachable = job.unreachableIDs[:kept], job.unreachable[:keptSide]
			total += kept
		}
	}
	if total > 0 {
		snap.Unreachable = make([]netip.AddrPort, 0, total)
		if idx != nil {
			snap.UnreachableIDs = make([]addridx.ID, 0, total)
		}
	}
	for i := range jobs {
		job := &jobs[i]
		if idx == nil {
			snap.Unreachable = append(snap.Unreachable, job.unreachable...)
		} else {
			// Interned entries read their address from the Index; the
			// rest take the next address off the job's side list.
			side := 0
			for _, id := range job.unreachableIDs {
				if id != addridx.None {
					snap.Unreachable = append(snap.Unreachable, idx.Addr(id))
				} else {
					snap.Unreachable = append(snap.Unreachable, job.unreachable[side])
					side++
				}
			}
			snap.UnreachableIDs = append(snap.UnreachableIDs, job.unreachableIDs...)
		}
		*job = crawlJob{}
	}
	c.mPending.Set(0)
	return snap, nil
}

// crawlTarget dials one target and drains it into its private report
// and job slot, accumulating through the worker's seen scratch.
func (c *Crawler) crawlTarget(target netip.AddrPort, known *knownView,
	seen *memberSet, report *NodeReport, job *crawlJob) {
	c.mDials.Inc()
	report.Addr = target
	sess, err := c.dialer.Dial(target)
	if err != nil {
		return
	}
	report.Connected = true
	c.mConnected.Inc()
	c.drainNode(sess, known, seen, report)
	job.unreachable = slices.Clone(seen.unreachable)
	job.unreachableIDs = slices.Clone(seen.unreachableIDs)
	if err := sess.Close(); err != nil {
		// Teardown failed after a successful drain: record it on the
		// report and keep the snapshot.
		report.CloseErr = err.Error()
	}
}

// drainNode implements the Algorithm 1 inner loop for one node,
// appending the node's unreachable addresses to seen's scratch.
func (c *Crawler) drainNode(sess Session, known *knownView, seen *memberSet, report *NodeReport) {
	// Sessions that serve dense IDs skip the per-address index lookup
	// and never build an address; the IDs are only meaningful against
	// Config.Index. The target's own ID is resolved once, so the
	// self-advertisement check is an ID comparison too.
	var idSess SessionWithIDs
	if c.cfg.Index != nil {
		idSess, _ = sess.(SessionWithIDs)
	}
	self := seen.resolve(report.Addr)
	for round := 0; round < maxGetAddrRounds; round++ {
		var addrs []wire.NetAddress
		var ids []addridx.ID
		var err error
		n := 0
		if idSess != nil {
			ids, err = idSess.GetAddrIDs()
			n = len(ids)
		} else {
			addrs, err = sess.GetAddr()
			n = len(addrs)
		}
		if err != nil {
			return
		}
		report.Rounds++
		c.mRounds.Inc()
		fresh := 0
		for k := 0; k < n; k++ {
			// On the ID path addr stays zero: every ID is dense, and the
			// sets below read the address only for addridx.None.
			var addr netip.AddrPort
			var id addridx.ID
			if ids != nil {
				id = ids[k]
			} else {
				addr = addrs[k].Addr
				id = seen.resolve(addr)
			}
			if !seen.add(addr, id) {
				continue
			}
			fresh++
			report.TotalSent++
			c.mAddrsTotal.Inc()
			if id == self && (id != addridx.None || addr == report.Addr) {
				report.SentOwnAddr = true
			}
			if known.contains(addr, id) {
				report.ReachableSent++
				c.mAddrsReach.Inc()
			} else {
				report.UnreachableSent++
				c.mAddrsUnreach.Inc()
				if seen.idx != nil {
					seen.unreachableIDs = append(seen.unreachableIDs, id)
				}
				if seen.idx == nil || id == addridx.None {
					seen.unreachable = append(seen.unreachable, addr)
				}
			}
		}
		// Algorithm 1 termination: a response with no new addresses
		// means the node's tables are drained.
		if fresh == 0 {
			return
		}
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
	// IDs, when set, holds the targets' dense station IDs, parallel to
	// the addresses and under Snapshot.UnreachableIDs' convention. A
	// prober that implements ProberWithIDs then probes every target
	// whose ID is not addridx.None by ID; any other prober ignores them.
	// The result's ResponsiveIDs is taken from them.
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
	// Responsive, under Snapshot.ConnectedIDs' convention; it is nil
	// when the scan had no IDs.
	ResponsiveIDs []addridx.ID
	// ReachableSurprises lists addresses that accepted outright (they
	// were misclassified as unreachable).
	ReachableSurprises []netip.AddrPort
}

// ScanWith runs Algorithm 2 with explicit fan-out and instrumentation:
// probe every address on cfg.Workers workers and collect the responsive
// ones in target order. Probe failures are counted and skipped — a
// single refused socket must not abort a 100K-address sweep — so the
// only errors returned are ctx cancellation and a cfg.IDs whose length
// is not the target count.
func ScanWith(ctx context.Context, cfg ScanConfig, at time.Time, prober Prober,
	addrs []netip.AddrPort) (*ScanResult, error) {
	if cfg.IDs != nil && len(cfg.IDs) != len(addrs) {
		return nil, fmt.Errorf("crawler: scan of %d targets given %d IDs", len(addrs), len(cfg.IDs))
	}
	var byID ProberWithIDs
	if cfg.IDs != nil {
		byID, _ = prober.(ProberWithIDs)
	}
	// outcomes[i] is target i's ProbeOutcome in one byte; 0, which no
	// outcome takes, marks a failed probe.
	outcomes := make([]byte, len(addrs))
	mProbeErrs := cfg.Metrics.Counter("crawl.probe.errors")
	err := par.ForEach(ctx, par.Workers(cfg.Workers), len(addrs), func(ctx context.Context, i int) error {
		var outcome ProbeOutcome
		var err error
		if byID != nil && cfg.IDs[i] != addridx.None {
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
