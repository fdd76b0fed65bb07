package netgen

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"sync"
	"time"

	"repro/internal/addridx"
	"repro/internal/asmap"
	"repro/internal/wire"
)

// Class labels the node populations of the study.
type Class int

// Node classes.
const (
	// ClassReachable nodes accept inbound connections.
	ClassReachable Class = iota + 1
	// ClassResponsive nodes are unreachable but run Bitcoin (they answer
	// the scanner's VER probe).
	ClassResponsive
	// ClassSilent addresses never answer: stale gossip, firewalled
	// hosts, or fabricated advertisements.
	ClassSilent
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassReachable:
		return "reachable"
	case ClassResponsive:
		return "responsive"
	case ClassSilent:
		return "silent"
	default:
		return "unknown"
	}
}

// Interval is a half-open time range [Start, End).
type Interval struct {
	Start time.Time
	End   time.Time
}

// Contains reports whether t lies in the interval.
func (iv Interval) Contains(t time.Time) bool {
	return !t.Before(iv.Start) && t.Before(iv.End)
}

// Duration returns the interval length.
func (iv Interval) Duration() time.Duration { return iv.End.Sub(iv.Start) }

// Station is one endpoint of the synthetic universe across the whole
// measurement horizon.
type Station struct {
	// Addr is the station's address (IP embeds the AS assignment).
	Addr netip.AddrPort
	// ID is the station's dense identifier, interned at Universe
	// construction (see internal/addridx): reachable stations in
	// generation order, then unreachable stations in appearance order.
	// Hot paths key membership bitsets and per-target RNG streams off
	// it instead of hashing the 28-byte address.
	ID addridx.ID
	// ASN hosts the station.
	ASN uint32
	// Class is the station's population.
	Class Class
	// Persistent reachable stations never leave the network.
	Persistent bool
	// Flapper reachable stations cycle on/off quickly.
	Flapper bool
	// Fresh marks stations whose first appearance is after the trace
	// start (never seen before).
	Fresh bool
	// Critical marks addresses on the critical-infrastructure blacklist
	// (excluded from crawling, §III-A).
	Critical bool
	// Malicious reachable stations answer GETADDR with unreachable-only
	// floods (§IV-B).
	Malicious bool
	// FloodBudget is the number of unreachable addresses a malicious
	// station will advertise in total.
	FloodBudget int
	// Sessions are the online intervals (reachable stations).
	Sessions []Interval
	// Visible is the gossip-visibility window (unreachable stations).
	Visible Interval
	// OnDNS marks reachable stations listed in the DNS seeder database.
	OnDNS bool
	// OnBitnodes marks reachable stations covered by the Bitnodes view.
	OnBitnodes bool
}

// OnlineAt reports whether a reachable station is online at t.
func (s *Station) OnlineAt(t time.Time) bool {
	for _, iv := range s.Sessions {
		if iv.Contains(t) {
			return true
		}
		if iv.Start.After(t) {
			return false
		}
	}
	return false
}

// VisibleAt reports whether an unreachable station's address is gossiped
// at t.
func (s *Station) VisibleAt(t time.Time) bool { return s.Visible.Contains(t) }

// TotalOnline returns the station's cumulative online time.
func (s *Station) TotalOnline() time.Duration {
	var total time.Duration
	for _, iv := range s.Sessions {
		total += iv.Duration()
	}
	return total
}

// SyncedAt reports whether a reachable station is synchronized with the
// chain tip at t: online, and past the IBD period of its current session
// (a long first-join IBD for fresh nodes, the measured 11-minute rejoin
// catch-up otherwise).
func (s *Station) SyncedAt(t time.Time, p Params) bool {
	for i, iv := range s.Sessions {
		if !iv.Contains(t) {
			continue
		}
		ibd := p.IBDRejoin
		if i == 0 && s.Fresh {
			ibd = p.IBDFirstJoin
		}
		return t.Sub(iv.Start) >= ibd
	}
	return false
}

// Universe is the generated synthetic network.
type Universe struct {
	// Params used for generation.
	Params Params
	// Reachable stations, in generation order.
	Reachable []*Station
	// Unreachable stations (responsive and silent).
	Unreachable []*Station
	// Alloc maps the universe's IPs back to ASNs.
	Alloc *asmap.IPAllocator
	// Index interns every station address into a dense StationID; it is
	// built once at the end of Generate and backs ByAddr plus every
	// crawl-path membership bitset.
	Index *addridx.Index

	stations []*Station // by dense ID
	rng      *rand.Rand

	pools instantPools // memoized per-instant candidate pools
}

// instantPools memoizes the candidate pools of the most recently queried
// instant. A crawl experiment freezes one instant and then asks for the
// same pools once per view (and once per TrueDegree on the ground-truth
// path), so remembering the last answer turns the repeated
// full-population scans into pointer returns. The cached slices are
// allocated exactly (no spare capacity) and never mutated afterwards, so
// handing the same slice to multiple callers is safe: callers treat the
// pools as read-only, and an append by any caller reallocates.
type instantPools struct {
	mu      sync.Mutex
	at      time.Time
	ok      bool
	online  []*Station
	visible []*Station
}

// Generate builds the universe from p.
func Generate(p Params) (*Universe, error) {
	if p.Scale <= 0 {
		return nil, fmt.Errorf("netgen: scale must be positive, got %v", p.Scale)
	}
	if p.Horizon <= 0 {
		return nil, fmt.Errorf("netgen: horizon must be positive, got %v", p.Horizon)
	}
	u := &Universe{
		Params: p,
		Alloc:  asmap.NewIPAllocator(0),
		rng:    rand.New(rand.NewSource(p.Seed)),
	}
	if err := u.generateReachable(); err != nil {
		return nil, err
	}
	if err := u.generateUnreachable(); err != nil {
		return nil, err
	}
	u.assignSeedViews()
	u.assignMalicious()
	if err := u.buildIndex(); err != nil {
		return nil, err
	}
	return u, nil
}

// buildIndex interns every station into the dense ID space. It runs
// after generation (the unreachable list is sorted by appearance first),
// so IDs are stable properties of (Params): reachable stations in
// generation order, then unreachable stations in appearance order.
func (u *Universe) buildIndex() error {
	n := len(u.Reachable) + len(u.Unreachable)
	addrs := make([]netip.AddrPort, 0, n)
	u.stations = make([]*Station, 0, n)
	intern := func(s *Station) {
		s.ID = addridx.ID(len(u.stations))
		u.stations = append(u.stations, s)
		addrs = append(addrs, s.Addr)
	}
	for _, s := range u.Reachable {
		intern(s)
	}
	for _, s := range u.Unreachable {
		intern(s)
	}
	idx, err := addridx.Build(addrs)
	if err != nil {
		return fmt.Errorf("netgen: intern stations: %w", err)
	}
	u.Index = idx
	return nil
}

// ByAddr returns the station at addr, or nil.
func (u *Universe) ByAddr(addr netip.AddrPort) *Station {
	id, ok := u.Index.Lookup(addr)
	if !ok {
		return nil
	}
	return u.stations[id]
}

// End returns the end of the measurement horizon.
func (u *Universe) End() time.Time { return u.Params.Epoch.Add(u.Params.Horizon) }

// toShares converts Table I percentages into fractional shares.
func toShares(pct map[uint32]float64) map[uint32]float64 {
	out := make(map[uint32]float64, len(pct))
	for asn, v := range pct {
		out[asn] = v / 100
	}
	return out
}

// pickPort picks the default port with probability pct, otherwise a
// random ephemeral-looking port.
func (u *Universe) pickPort(pct float64) uint16 {
	if u.rng.Float64() < pct {
		return wire.DefaultPort
	}
	return uint16(1024 + u.rng.Intn(64000))
}

// generateReachable builds the reachable population with sessions.
func (u *Universe) generateReachable() error {
	p := u.Params
	dist, err := asmap.NewDistribution(asmap.PowerLawWeights(
		toShares(ReachableASShares), p.ReachableASes-len(ReachableASShares),
		100000, p.ReachableTailAlpha))
	if err != nil {
		return fmt.Errorf("netgen: reachable AS distribution: %w", err)
	}

	steady := p.scaled(p.SteadyReachable)
	persistent := p.scaled(p.PersistentReachable)
	if persistent > steady {
		persistent = steady
	}
	// Steady-state accounting: persistent + recurring-transient duty +
	// ephemeral stock must add to the steady online population.
	duty := float64(p.MeanSessionOn) / float64(p.MeanSessionOn+p.MeanSessionOff)
	freshPerDay := p.scaledF(p.FreshPerDay)
	ephemSteady := freshPerDay * p.EphemeralLifetime.Hours() / 24
	transientSteady := float64(steady-persistent) - ephemSteady
	if transientSteady < 0 {
		transientSteady = 0
	}
	transientPool := int(transientSteady / duty)
	freshTotal := int(freshPerDay * p.Horizon.Hours() / 24)
	initialEphemerals := int(ephemSteady)

	end := u.End()
	newStation := func(fresh bool) (*Station, error) {
		asn := dist.Sample(u.rng)
		ip, err := u.Alloc.Alloc(asn)
		if err != nil {
			return nil, fmt.Errorf("netgen: alloc reachable IP: %w", err)
		}
		s := &Station{
			Addr:     netip.AddrPortFrom(ip, u.pickPort(p.ReachableDefaultPortPct)),
			ASN:      asn,
			Class:    ClassReachable,
			Fresh:    fresh,
			Critical: u.rng.Float64() < p.CriticalInfraPct,
		}
		u.Reachable = append(u.Reachable, s)
		return s, nil
	}

	// Persistent core: online for the whole horizon.
	for i := 0; i < persistent; i++ {
		s, err := newStation(false)
		if err != nil {
			return err
		}
		s.Persistent = true
		s.Sessions = []Interval{{Start: p.Epoch, End: end}}
	}

	// Recurring transient pool: start online with probability equal to
	// the duty cycle (the stationary distribution of the on/off process).
	for i := 0; i < transientPool; i++ {
		s, err := newStation(false)
		if err != nil {
			return err
		}
		s.Flapper = u.rng.Float64() < p.FlapperFraction
		startOnline := u.rng.Float64() < duty
		u.fillSessions(s, p.Epoch, end, startOnline)
	}

	// Ephemeral stock present at the epoch, with residual lifetimes.
	for i := 0; i < initialEphemerals; i++ {
		s, err := newStation(false)
		if err != nil {
			return err
		}
		u.fillEphemeralSession(s, p.Epoch, end)
	}

	// Fresh ephemeral arrivals, uniform over the horizon: one session,
	// never seen again.
	for i := 0; i < freshTotal; i++ {
		s, err := newStation(true)
		if err != nil {
			return err
		}
		arrive := p.Epoch.Add(time.Duration(u.rng.Float64() * float64(p.Horizon)))
		u.fillEphemeralSession(s, arrive, end)
	}
	return nil
}

// fillEphemeralSession gives s a single online session of exponential
// length starting at from.
func (u *Universe) fillEphemeralSession(s *Station, from, end time.Time) {
	d := time.Duration(u.rng.ExpFloat64() * float64(u.Params.EphemeralLifetime))
	if d < time.Minute {
		d = time.Minute
	}
	segEnd := from.Add(d)
	if segEnd.After(end) {
		segEnd = end
	}
	if segEnd.After(from) {
		s.Sessions = []Interval{{Start: from, End: segEnd}}
	}
}

// fillSessions generates alternating exponential on/off sessions for s in
// [from, end).
func (u *Universe) fillSessions(s *Station, from, end time.Time, startOnline bool) {
	p := u.Params
	onMean, offMean := p.MeanSessionOn, p.MeanSessionOff
	if s.Flapper {
		onMean /= 6
		offMean /= 6
	}
	t := from
	online := startOnline
	for t.Before(end) {
		mean := offMean
		if online {
			mean = onMean
		}
		d := time.Duration(u.rng.ExpFloat64() * float64(mean))
		if d < time.Minute {
			d = time.Minute
		}
		segEnd := t.Add(d)
		if segEnd.After(end) {
			segEnd = end
		}
		if online {
			s.Sessions = append(s.Sessions, Interval{Start: t, End: segEnd})
		}
		t = segEnd
		online = !online
	}
}

// generateUnreachable builds the unreachable population: the initial
// visible stock plus Poisson arrivals, split responsive/silent with
// distinct AS distributions and TTLs.
func (u *Universe) generateUnreachable() error {
	p := u.Params
	// The responsive population is a subset of the unreachable one, so
	// its tail draws from the same synthetic ASN range; it just spans
	// fewer ASes with its own skew.
	respDist, err := asmap.NewDistribution(asmap.PowerLawWeights(
		toShares(ResponsiveASShares), p.ResponsiveASes-len(ResponsiveASShares),
		300000, p.ResponsiveTailAlpha))
	if err != nil {
		return fmt.Errorf("netgen: responsive AS distribution: %w", err)
	}
	silentDist, err := asmap.NewDistribution(asmap.PowerLawWeights(
		toShares(UnreachableASShares), p.UnreachableASes-len(UnreachableASShares),
		300000, p.UnreachableTailAlpha))
	if err != nil {
		return fmt.Errorf("netgen: unreachable AS distribution: %w", err)
	}

	initial := p.scaled(p.InitialUnreachable)
	arrivals := int(p.scaledF(p.UnreachablePerDay) * p.Horizon.Hours() / 24)
	end := u.End()

	add := func(appear time.Time) error {
		responsive := u.rng.Float64() < p.ResponsiveFraction
		class := ClassSilent
		dist := silentDist
		ttl := p.UnreachableTTL
		if responsive {
			class = ClassResponsive
			dist = respDist
			ttl = time.Duration(float64(p.UnreachableTTL) * p.ResponsiveTTLBoost)
		}
		// Jitter TTL ±30% so expiry is not synchronized.
		ttl = time.Duration(float64(ttl) * (0.7 + 0.6*u.rng.Float64()))
		asn := dist.Sample(u.rng)
		ip, err := u.Alloc.Alloc(asn)
		if err != nil {
			return fmt.Errorf("netgen: alloc unreachable IP: %w", err)
		}
		expire := appear.Add(ttl)
		if expire.After(end.Add(p.UnreachableTTL)) {
			expire = end.Add(p.UnreachableTTL)
		}
		s := &Station{
			Addr:    netip.AddrPortFrom(ip, u.pickPort(p.UnreachableDefaultPortPct)),
			ASN:     asn,
			Class:   class,
			Visible: Interval{Start: appear, End: expire},
		}
		u.Unreachable = append(u.Unreachable, s)
		return nil
	}

	// Initial stock: appeared before the epoch, with residual lifetime;
	// model by back-dating the appearance uniformly within one TTL.
	for i := 0; i < initial; i++ {
		back := time.Duration(u.rng.Float64() * float64(p.UnreachableTTL))
		if err := add(p.Epoch.Add(-back)); err != nil {
			return err
		}
	}
	for i := 0; i < arrivals; i++ {
		at := p.Epoch.Add(time.Duration(u.rng.Float64() * float64(p.Horizon)))
		if err := add(at); err != nil {
			return err
		}
	}
	// Keep unreachable stations sorted by appearance for reproducible
	// iteration.
	sort.Slice(u.Unreachable, func(i, j int) bool {
		return u.Unreachable[i].Visible.Start.Before(u.Unreachable[j].Visible.Start)
	})
	return nil
}

// assignSeedViews marks which reachable stations appear in the Bitnodes
// and DNS-seeder databases (Figure 3's source overlap structure). The DNS
// database records nodes that recently queried the seeder, so its entries
// skew heavily toward long-lived, frequently-online stations — which is
// why the paper finds 92% of its DNS list concurrently on Bitnodes.
func (u *Universe) assignSeedViews() {
	p := u.Params
	for _, s := range u.Reachable {
		s.OnBitnodes = u.rng.Float64() < p.BitnodesCoverage
	}
	dnsTarget := p.scaled(p.DNSListSize)
	overlap := int(float64(dnsTarget) * p.DNSOverlapFraction)

	// Weighted sampling without replacement (exponential-key trick):
	// key = -ln(u)/w; the smallest keys win. Weight is the squared
	// online fraction, pushing the DNS list toward stable stations.
	type cand struct {
		s   *Station
		key float64
	}
	var onBit, offBit []cand
	horizon := float64(p.Horizon)
	for _, s := range u.Reachable {
		frac := float64(s.TotalOnline()) / horizon
		w := frac*frac*frac*frac + 1e-9
		c := cand{s: s, key: -logFloat(u.rng.Float64()) / w}
		if s.OnBitnodes {
			onBit = append(onBit, c)
		} else {
			offBit = append(offBit, c)
		}
	}
	sort.Slice(onBit, func(i, j int) bool { return onBit[i].key < onBit[j].key })
	sort.Slice(offBit, func(i, j int) bool { return offBit[i].key < offBit[j].key })
	for i := 0; i < overlap && i < len(onBit); i++ {
		onBit[i].s.OnDNS = true
	}
	for i := 0; i < dnsTarget-overlap && i < len(offBit); i++ {
		offBit[i].s.OnDNS = true
	}
}

// logFloat guards math.Log against a zero draw.
func logFloat(v float64) float64 {
	if v <= 0 {
		v = 1e-12
	}
	return math.Log(v)
}

// assignMalicious marks flooder stations (§IV-B): preferentially placed
// in AS3320, persistent (they were observable across the crawl), with a
// heavy-tailed flood budget (8 nodes >100K, max >400K).
func (u *Universe) assignMalicious() {
	p := u.Params
	want := p.scaled(p.MaliciousCount)
	wantAS3320 := p.scaled(p.MaliciousInAS3320)
	heavy := p.scaled(p.MaliciousHeavyCount)
	if want == 0 {
		return
	}
	var in3320, others []*Station
	for _, s := range u.Reachable {
		if !s.Persistent || s.Critical {
			continue
		}
		if s.ASN == 3320 {
			in3320 = append(in3320, s)
		} else {
			others = append(others, s)
		}
	}
	u.rng.Shuffle(len(in3320), func(i, j int) { in3320[i], in3320[j] = in3320[j], in3320[i] })
	u.rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	var chosen []*Station
	for _, s := range in3320 {
		if len(chosen) >= wantAS3320 {
			break
		}
		chosen = append(chosen, s)
	}
	for _, s := range others {
		if len(chosen) >= want {
			break
		}
		chosen = append(chosen, s)
	}
	for i, s := range chosen {
		s.Malicious = true
		// Flood budgets: heavy nodes 100K–450K, the rest log-uniform
		// 1K–100K (Figure 8's shape).
		if i < heavy {
			budget := 100000 + u.rng.Intn(350000)
			if i == 0 {
				budget = 400000 + u.rng.Intn(50000)
			}
			s.FloodBudget = int(float64(budget) * p.Scale)
		} else {
			lo, hi := math.Log(1000), math.Log(100000)
			s.FloodBudget = int(math.Exp(lo+u.rng.Float64()*(hi-lo)) * p.Scale)
		}
		if s.FloodBudget < 1 {
			s.FloodBudget = 1
		}
	}
}

// OnlineReachable returns the reachable stations online at t. The
// returned slice is shared with other callers asking about the same
// instant and must be treated as read-only.
func (u *Universe) OnlineReachable(t time.Time) []*Station {
	online, _ := u.poolsAt(t)
	return online
}

// VisibleUnreachable returns the unreachable stations gossiped at t,
// under the same shared read-only contract as OnlineReachable.
func (u *Universe) VisibleUnreachable(t time.Time) []*Station {
	_, visible := u.poolsAt(t)
	return visible
}

// poolsAt returns both candidate pools for instant t, computing and
// memoizing them on first request. The memo holds one instant only; a
// series sweep computes each instant once and never revisits, while
// repeated experiments at one instant (and the online+visible pair every
// caller wants together) hit the cache. Cached slices are exact-sized
// fresh allocations, so a superseded instant's slices stay valid in the
// hands of whoever holds them.
func (u *Universe) poolsAt(t time.Time) (online, visible []*Station) {
	u.pools.mu.Lock()
	defer u.pools.mu.Unlock()
	if u.pools.ok && u.pools.at.Equal(t) {
		return u.pools.online, u.pools.visible
	}
	nOnline, nVisible := 0, 0
	for _, s := range u.Reachable {
		if s.OnlineAt(t) {
			nOnline++
		}
	}
	for _, s := range u.Unreachable {
		if s.VisibleAt(t) {
			nVisible++
		}
	}
	if nOnline > 0 {
		online = make([]*Station, 0, nOnline)
	}
	if nVisible > 0 {
		visible = make([]*Station, 0, nVisible)
	}
	for _, s := range u.Reachable {
		if s.OnlineAt(t) {
			online = append(online, s)
		}
	}
	for _, s := range u.Unreachable {
		if s.VisibleAt(t) {
			visible = append(visible, s)
		}
	}
	u.pools.at, u.pools.ok = t, true
	u.pools.online, u.pools.visible = online, visible
	return online, visible
}
