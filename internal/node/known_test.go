package node

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"net/netip"
	"testing"

	"repro/internal/chainhash"
)

// hashWithKey builds a hash whose invKey is k.
func hashWithKey(k uint64) chainhash.Hash {
	var h chainhash.Hash
	binary.LittleEndian.PutUint64(h[:8], k)
	return h
}

// clusteredKey maps id to a key: 0 stays the zero key, and ids that share
// their low byte share the key's low 10 bits, so probe sequences overlap
// and wrap.
func clusteredKey(id uint64) uint64 {
	if id == 0 {
		return 0
	}
	return id<<10 | id&0xff<<2
}

// knownModel drives a node's known-inventory table through the node's own
// entry points (addPeer, OnDisconnect, Stop, markKnown, knows) and checks
// it against what the table replaced: one set per peer, which at
// maxKnownInv keys starts over before the next key goes in.
type knownModel struct {
	tb    testing.TB
	n     *Node
	conn  ConnID
	live  []*Peer
	sets  map[*Peer]map[uint64]bool
	gone  []*Peer // removed peers, most recent last
	cells *uint64 // the table's first cell at the last sweep: a new one means a rehash

	// Tallies the tests assert on.
	rehashes, compactions, stops, maxLive int
	resets                                map[*Peer]int
}

func newKnownModel(tb testing.TB) *knownModel {
	return &knownModel{
		tb:     tb,
		n:      New(testConfig(mkAddr(10, 0, 0, 1)), newFakeEnv()),
		sets:   map[*Peer]map[uint64]bool{},
		resets: map[*Peer]int{},
	}
}

// add connects a new inbound peer, which must know nothing yet.
func (m *knownModel) add() *Peer {
	m.conn++
	addr := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 1, byte(m.conn >> 8), byte(m.conn)}), 8333)
	p := m.n.addPeer(m.conn, addr, Inbound)
	m.sets[p] = map[uint64]bool{}
	m.live = append(m.live, p)
	m.maxLive = max(m.maxLive, len(m.live))
	if p.nKnown != 0 {
		m.tb.Fatalf("new peer %d starts with %d keys", p.id, p.nKnown)
	}
	m.afterOp()
	return p
}

// remove disconnects live peer i.
func (m *knownModel) remove(i int) {
	p := m.live[i]
	slots := len(m.n.slots)
	m.n.OnDisconnect(p.id)
	if len(m.n.slots) < slots {
		m.compactions++
	}
	m.live = append(m.live[:i], m.live[i+1:]...)
	delete(m.sets, p)
	m.gone = append(m.gone, p)
	m.afterOp()
}

// stop stops the node, which removes every peer, and carries on with a
// fresh node.
func (m *knownModel) stop() {
	m.n.Stop()
	m.stops++
	for _, p := range m.live {
		delete(m.sets, p)
	}
	m.gone = append(m.gone, m.live...)
	m.live = m.live[:0]
	m.n = New(testConfig(mkAddr(10, 0, 0, 1)), newFakeEnv())
	m.cells = nil
}

// mark records key k as known to p, in the table and in p's set.
func (m *knownModel) mark(p *Peer, k uint64) {
	set := m.sets[p]
	if len(set) >= maxKnownInv {
		clear(set)
		m.resets[p]++
	}
	set[k] = true
	p.markKnown(hashWithKey(k))
	m.check(p, k)
	m.afterOp()
}

// check compares p's membership of k and p's key count with its set.
func (m *knownModel) check(p *Peer, k uint64) {
	m.tb.Helper()
	if got, want := p.knows(hashWithKey(k)), m.sets[p][k]; got != want {
		m.tb.Fatalf("peer %d (bit %d): knows(%#x) = %v, its set says %v", p.id, p.bit, k, got, want)
	}
	if p.nKnown != len(m.sets[p]) {
		m.tb.Fatalf("peer %d (bit %d): count %d, its set holds %d", p.id, p.bit, p.nKnown, len(m.sets[p]))
	}
}

// poke marks key k on removed peer p, which must neither know it nor
// record it.
func (m *knownModel) poke(p *Peer, k uint64) {
	used, n := p.known.used, p.nKnown
	p.markKnown(hashWithKey(k))
	if p.knows(hashWithKey(k)) || p.known.used != used || p.nKnown != n {
		m.tb.Fatalf("removed peer %d took key %#x", p.id, k)
	}
}

// afterOp sweeps the whole table whenever it has been rehashed.
func (m *knownModel) afterOp() {
	t := &m.n.known
	if len(t.keys) > 0 && &t.keys[0] != m.cells {
		m.cells = &t.keys[0]
		m.rehashes++
		m.sweep(true)
	}
}

// sweep compares the whole table with the sets: the live peers hold
// distinct taken bits, every set key is in the table, and every bit in
// the table belongs to a live peer whose set holds the key. Just after a
// rehash no cell may hold an empty bitset.
func (m *knownModel) sweep(rehashed bool) {
	m.tb.Helper()
	t := &m.n.known
	owner := map[int32]*Peer{}
	for _, p := range m.live {
		if p.bit < 0 || owner[p.bit] != nil || t.taken[p.bit>>6]&(1<<(p.bit&63)) == 0 {
			m.tb.Fatalf("peer %d holds bit %d, which is negative, shared or not taken", p.id, p.bit)
		}
		owner[p.bit] = p
		for k := range m.sets[p] {
			if !p.knows(hashWithKey(k)) {
				m.tb.Fatalf("peer %d (bit %d): key %#x in its set, not in the table", p.id, p.bit, k)
			}
		}
	}
	taken := 0
	for _, x := range t.taken {
		taken += bits.OnesCount64(x)
	}
	if taken != len(m.live) {
		m.tb.Fatalf("%d bits taken for %d live peers", taken, len(m.live))
	}
	owned := func(k uint64, set []uint64) {
		for w, x := range set {
			for ; x != 0; x &= x - 1 {
				b := int32(64*w + bits.TrailingZeros64(x))
				if p := owner[b]; p == nil || !m.sets[p][k] {
					m.tb.Fatalf("key %#x carries bit %d, whose peer's set lacks it", k, b)
				}
			}
		}
	}
	used := 0
	for i, k := range t.keys {
		if k == 0 {
			continue
		}
		used++
		set := t.bits[i*t.words:][:t.words]
		if rehashed && !anySet(set) {
			m.tb.Fatalf("key %#x kept its cell through a rehash with no bit set", k)
		}
		owned(k, set)
	}
	owned(0, t.zero)
	if used != t.used {
		m.tb.Fatalf("%d cells occupied, the table counts %d", used, t.used)
	}
}

// TestKnownTableMatchesPerPeerSets checks the node's known-inventory table
// against one set per peer. The first phase keeps 70 peers (more than one
// bitset word's worth) connected while each passes the maxKnownInv reset;
// the second churns peers up to the 127 a node can hold and down again,
// which releases and reuses bits and compacts slots, stops the node now
// and then, and marks and probes removed peers. Membership of the touched
// key and the peer's count are checked after every call and the whole
// table at every rehash. Keys include 0 (the bitset beside the table) and
// runs that share their low bits.
func TestKnownTableMatchesPerPeerSets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := newKnownModel(t)
	draw := func(ids int) uint64 {
		if rng.Intn(500) == 0 {
			return 0
		}
		return clusteredKey(uint64(rng.Intn(ids)) + 1)
	}

	const phase1Peers = 70
	for range phase1Peers {
		m.add()
	}
	for !m.allReset() {
		p := m.live[rng.Intn(len(m.live))]
		m.mark(p, draw(20000))
		q := m.live[rng.Intn(len(m.live))]
		m.check(q, draw(20000))
	}
	m.sweep(false)

	const most = maxInbound + DefaultMaxOutbound + DefaultMaxFeelers
	growing := true
	for op := 0; op < 200000; op++ {
		// Per mille: peers come faster than they go while growing, and
		// slower while shrinking.
		add, remove := 50, 20
		if !growing {
			add, remove = 20, 50
		}
		switch r := rng.Intn(1000); {
		case r == 0 && rng.Intn(20) == 0:
			m.stop()
		case r <= add:
			if len(m.live) < most {
				m.add()
			}
		case r <= add+remove:
			if len(m.live) > 0 {
				m.remove(rng.Intn(len(m.live)))
			}
		case r <= add+remove+20:
			if len(m.gone) > 0 {
				m.poke(m.gone[len(m.gone)-1-rng.Intn(min(len(m.gone), 20))], draw(3000))
			}
		case len(m.live) > 0:
			m.mark(m.live[rng.Intn(len(m.live))], draw(3000))
			m.check(m.live[rng.Intn(len(m.live))], draw(3000))
		}
		if len(m.live) == most {
			growing = false
		} else if len(m.live) <= 5 {
			growing = true
		}
		if op%20000 == 0 {
			m.sweep(false)
		}
	}
	m.sweep(false)

	if m.maxLive != most {
		t.Errorf("at most %d peers were live at once, want %d", m.maxLive, most)
	}
	if m.compactions == 0 || m.stops == 0 {
		t.Errorf("%d slot compactions and %d stops, want at least one of each", m.compactions, m.stops)
	}
	if m.rehashes < 10 {
		t.Errorf("the table was rehashed %d times, want at least 10", m.rehashes)
	}
}

// allReset reports whether every live peer has passed the maxKnownInv
// reset.
func (m *knownModel) allReset() bool {
	for _, p := range m.live {
		if m.resets[p] == 0 {
			return false
		}
	}
	return true
}

// FuzzKnownTable decodes an operation stream, three bytes an operation
// (an add connects up to 16 peers, so a short stream passes 64), and
// checks the node's known-inventory table against one set per peer
// after every call and in full at the end.
func FuzzKnownTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 7, 0, 1, 7, 0, 2, 0, 0, 0, 7, 1, 1, 1, 0, 0, 7, 0, 1})
	var many []byte
	for range 5 {
		many = append(many, 0, 15, 0)
	}
	for i := range 70 {
		many = append(many, 7, byte(i), byte(i))
	}
	f.Add(append(many, 1, 3, 0, 0, 0, 0, 7, 200, 3, 2, 0, 0))
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newKnownModel(t)
		for ; len(ops) >= 3; ops = ops[3:] {
			op, who, id := ops[0], int(ops[1]), uint64(ops[2])|uint64(ops[0]>>3)<<8
			switch op & 7 {
			case 0:
				for range 1 + who%16 {
					if len(m.live) < 130 {
						m.add()
					}
				}
			case 1:
				if len(m.live) > 0 {
					m.remove(who % len(m.live))
				}
			case 2:
				if op>>3 == 0 {
					m.stop()
				}
			case 3:
				if len(m.gone) > 0 {
					m.poke(m.gone[who%len(m.gone)], clusteredKey(id))
				}
			case 4:
				if len(m.live) > 0 {
					m.check(m.live[who%len(m.live)], clusteredKey(id))
				}
			default:
				if len(m.live) > 0 {
					m.mark(m.live[who%len(m.live)], clusteredKey(id))
				}
			}
		}
		m.sweep(false)
	})
}
