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
// configured with: GetAddrIDs returns the page's dense StationIDs
// alongside the addresses (None for out-of-index entries), saving the
// crawler one index hash lookup per received address — the single
// hottest operation of a popsim crawl. Both slices follow GetAddr's
// borrowed-buffer contract. The crawler uses this path only when
// Config.Index is set; a backend must implement it only if the IDs it
// returns are dense in that same index.
type SessionWithIDs interface {
	GetAddrIDs() ([]wire.NetAddress, []addridx.ID, error)
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

// Exchange is one observed GETADDR→ADDR exchange: Source answered the
// Round-th GETADDR of its drain with Addrs. Observers receive exchanges
// exactly as the session returned them — duplicates, self-references
// and all — so downstream estimators choose their own filtering.
type Exchange struct {
	// At is the crawl's nominal time.
	At time.Time
	// Source is the crawled node that answered.
	Source netip.AddrPort
	// SourceID is Source's dense station ID, or addridx.None when the
	// crawler has no Index (or the address is outside it).
	SourceID addridx.ID
	// Round is the zero-based GETADDR round within Source's drain.
	Round int
	// Addrs is the raw ADDR response. The slice is owned by the
	// observer; the crawler does not reuse it.
	Addrs []wire.NetAddress
}

// Observer receives crawl exchanges. Deliveries happen on Crawl's calling
// goroutine in target order (and round order within a target), so an
// observer needs no locking and sees a byte-identical stream at any
// worker count. Attaching an observer does not perturb the snapshot.
type Observer func(Exchange)

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
	// Observer, when set, receives every GETADDR→ADDR exchange in
	// deterministic target order (see Observer). Nil disables capture —
	// and its buffering cost — entirely.
	Observer Observer
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
	// under the same convention as ConnectedIDs.
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
// collects one target's unreachable (addr, id) pairs, so the buffers grow
// to the worker's largest target once, not once per target.
type memberSet struct {
	idx    *addridx.Index
	epochs []uint32 // epochs[id] == epoch ⇔ id is a member
	epoch  uint32
	rest   addridx.Seen

	unreachable    []netip.AddrPort
	unreachableIDs []addridx.ID // parallel to unreachable
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
// snapshot, so output is byte-identical at any worker count.
type crawlJob struct {
	report         *NodeReport
	unreachable    []netip.AddrPort // the job's own copy of the worker's scratch
	unreachableIDs []addridx.ID     // parallel to unreachable
	exchanges      []Exchange       // captured only when Config.Observer != nil
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
	scratch := sync.Pool{New: func() any { return newMemberSet(c.cfg.Index) }}
	err := par.ForEach(ctx, workers, len(targets), func(ctx context.Context, i int) error {
		seen := scratch.Get().(*memberSet)
		c.crawlTarget(targets[i], known, seen, &jobs[i])
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
	for i := range jobs {
		rep := jobs[i].report
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
		if c.cfg.Observer != nil {
			// Deliver from the merge, never from workers: the observer
			// stream inherits the merge order and needs no
			// synchronization of its own.
			srcID := global.resolve(rep.Addr)
			for _, ex := range jobs[i].exchanges {
				ex.At = at
				ex.SourceID = srcID
				c.cfg.Observer(ex)
			}
			jobs[i].exchanges = nil
		}
	}
	// Merge, phase two: aggregate the unreachable sets in one pass. Each
	// job's slices are compacted in place, in target order, down to the
	// entries new to the whole crawl; the aggregate is then allocated
	// once, at exactly the kept total, and concatenated, so first-seen
	// order is preserved.
	if c.cfg.Index == nil {
		sum := 0
		for i := range jobs {
			sum += len(jobs[i].unreachable)
		}
		global.rest.Reserve(sum)
	}
	total := 0
	for i := range jobs {
		job := &jobs[i]
		kept := 0
		for k, a := range job.unreachable {
			id := job.unreachableIDs[k]
			if global.add(a, id) {
				job.unreachable[kept], job.unreachableIDs[kept] = a, id
				kept++
			}
		}
		job.unreachable, job.unreachableIDs = job.unreachable[:kept], job.unreachableIDs[:kept]
		total += kept
	}
	if total > 0 {
		snap.Unreachable = make([]netip.AddrPort, 0, total)
		if c.cfg.Index != nil {
			snap.UnreachableIDs = make([]addridx.ID, 0, total)
		}
	}
	for i := range jobs {
		snap.Unreachable = append(snap.Unreachable, jobs[i].unreachable...)
		if c.cfg.Index != nil {
			snap.UnreachableIDs = append(snap.UnreachableIDs, jobs[i].unreachableIDs...)
		}
		jobs[i] = crawlJob{}
	}
	c.mPending.Set(0)
	return snap, nil
}

// crawlTarget dials one target and drains it into its private job slot,
// accumulating through the worker's seen scratch.
func (c *Crawler) crawlTarget(target netip.AddrPort, known *knownView,
	seen *memberSet, job *crawlJob) {
	c.mDials.Inc()
	job.report = &NodeReport{Addr: target}
	sess, err := c.dialer.Dial(target)
	if err != nil {
		return
	}
	job.report.Connected = true
	c.mConnected.Inc()
	c.drainNode(sess, known, seen, job)
	job.unreachable = slices.Clone(seen.unreachable)
	job.unreachableIDs = slices.Clone(seen.unreachableIDs)
	if err := sess.Close(); err != nil {
		// Teardown failed after a successful drain: record it on the
		// report and keep the snapshot.
		job.report.CloseErr = err.Error()
	}
}

// drainNode implements the Algorithm 1 inner loop for one node,
// appending the node's unreachable addresses to seen's scratch.
func (c *Crawler) drainNode(sess Session, known *knownView, seen *memberSet, job *crawlJob) {
	report := job.report
	// Sessions that know their addresses' dense IDs save the per-address
	// index lookup; the IDs are only meaningful against Config.Index.
	var idSess SessionWithIDs
	if c.cfg.Index != nil {
		idSess, _ = sess.(SessionWithIDs)
	}
	for round := 0; round < maxGetAddrRounds; round++ {
		var addrs []wire.NetAddress
		var ids []addridx.ID
		var err error
		if idSess != nil {
			addrs, ids, err = idSess.GetAddrIDs()
		} else {
			addrs, err = sess.GetAddr()
		}
		if err != nil {
			return
		}
		report.Rounds++
		c.mRounds.Inc()
		if c.cfg.Observer != nil {
			// Copy: the session may reuse its response buffer.
			captured := make([]wire.NetAddress, len(addrs))
			copy(captured, addrs)
			job.exchanges = append(job.exchanges, Exchange{
				Source: report.Addr,
				Round:  round,
				Addrs:  captured,
			})
		}
		fresh := 0
		for k, na := range addrs {
			var id addridx.ID
			if ids != nil {
				id = ids[k]
			} else {
				id = seen.resolve(na.Addr)
			}
			if !seen.add(na.Addr, id) {
				continue
			}
			fresh++
			report.TotalSent++
			c.mAddrsTotal.Inc()
			if na.Addr == report.Addr {
				report.SentOwnAddr = true
			}
			if known.contains(na.Addr, id) {
				report.ReachableSent++
				c.mAddrsReach.Inc()
			} else {
				report.UnreachableSent++
				c.mAddrsUnreach.Inc()
				seen.unreachable = append(seen.unreachable, na.Addr)
				seen.unreachableIDs = append(seen.unreachableIDs, id)
			}
		}
		// Algorithm 1 termination: a response with no new addresses
		// means the node's tables are drained.
		if fresh == 0 {
			return
		}
	}
}

// ProbeObservation is one scanner probe outcome as seen by a scan
// observer. Failed probes carry Err = true and a zero Outcome.
type ProbeObservation struct {
	// At is the scan's nominal time.
	At time.Time
	// Addr is the probed address.
	Addr netip.AddrPort
	// Outcome is the probe classification (zero when Err).
	Outcome ProbeOutcome
	// Err reports a probe that failed outright.
	Err bool
}

// ScanConfig bounds scanner behaviour.
type ScanConfig struct {
	// Workers is the probe fan-out width; zero or negative means
	// GOMAXPROCS. Results are merged in target order and are
	// byte-identical at any width.
	Workers int
	// Metrics, when set, receives the crawl.probe.errors counter.
	Metrics *obs.Registry
	// Observer, when set, receives every probe outcome in target order
	// from the merge fold — the same determinism contract as
	// Config.Observer on the crawl side.
	Observer func(ProbeObservation)
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
	// ReachableSurprises lists addresses that accepted outright (they
	// were misclassified as unreachable).
	ReachableSurprises []netip.AddrPort
}

// Scan runs Algorithm 2 sequentially with default options: probe every
// address and collect the responsive ones.
func Scan(at time.Time, prober Prober, addrs []netip.AddrPort) (*ScanResult, error) {
	return ScanWith(context.Background(), ScanConfig{Workers: 1}, at, prober, addrs)
}

// ScanWith runs Algorithm 2 with explicit fan-out and instrumentation:
// probe every address on cfg.Workers workers and collect the responsive
// ones in target order. Probe failures are counted and skipped — a
// single refused socket must not abort a 100K-address sweep — so the
// only error returned is ctx cancellation.
func ScanWith(ctx context.Context, cfg ScanConfig, at time.Time, prober Prober,
	addrs []netip.AddrPort) (*ScanResult, error) {
	res := &ScanResult{Time: at}
	outcomes := make([]ProbeOutcome, len(addrs))
	failed := make([]bool, len(addrs))
	mProbeErrs := cfg.Metrics.Counter("crawl.probe.errors")
	err := par.ForEach(ctx, par.Workers(cfg.Workers), len(addrs), func(ctx context.Context, i int) error {
		outcome, err := prober.Probe(addrs[i])
		if err != nil {
			failed[i] = true
			mProbeErrs.Inc()
			return nil
		}
		outcomes[i] = outcome
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, a := range addrs {
		res.Probed++
		if cfg.Observer != nil {
			cfg.Observer(ProbeObservation{At: at, Addr: a, Outcome: outcomes[i], Err: failed[i]})
		}
		if failed[i] {
			res.ProbeErrors++
			continue
		}
		switch outcomes[i] {
		case ProbeResponsive:
			res.Responsive = append(res.Responsive, a)
		case ProbeReachable:
			res.ReachableSurprises = append(res.ReachableSurprises, a)
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
