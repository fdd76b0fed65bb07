package tcpnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/node"
	"repro/internal/wire"
)

// NodeServer runs the full node state machine (internal/node) over real
// TCP sockets: the same protocol logic that powers the virtual-time
// simulations, here driven by an actor loop with wall-clock timers and a
// per-connection reader/writer pair. This closes the loop on the
// reproduction's realism claim — the node under simulation is the node on
// the wire.
//
// Concurrency model: the node itself is single-threaded by contract, so
// every interaction (timers, inbound messages, dial results) is funneled
// through a single actor goroutine via the calls channel. Socket readers
// and writers run in their own goroutines and communicate only through
// that channel and per-connection outboxes.
type NodeServer struct {
	cfg      node.Config
	netMagic wire.BitcoinNet

	listener net.Listener
	node     *node.Node

	calls chan func()
	done  chan struct{}
	wg    sync.WaitGroup

	mu     sync.Mutex
	conns  map[node.ConnID]*serverConn
	nextID node.ConnID
	closed bool

	rng *rand.Rand
}

// serverConn is one live TCP connection owned by a NodeServer.
type serverConn struct {
	id     node.ConnID
	conn   net.Conn
	outbox chan wire.Message
	closed chan struct{}
	once   sync.Once
}

// NewNodeServer starts a full node listening on listenAddr. The node's
// Self address is filled from the listener when unset.
func NewNodeServer(cfg node.Config, netMagic wire.BitcoinNet, listenAddr string) (*NodeServer, error) {
	if netMagic == 0 {
		netMagic = wire.SimNet
	}
	l, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", listenAddr, err)
	}
	if !cfg.Self.Addr.IsValid() {
		ap, err := netip.ParseAddrPort(l.Addr().String())
		if err != nil {
			_ = l.Close()
			return nil, fmt.Errorf("tcpnet: parse listener addr: %w", err)
		}
		cfg.Self = wire.NetAddress{
			Addr: ap, Services: wire.SFNodeNetwork, Timestamp: time.Now(),
		}
	}
	s := &NodeServer{
		cfg:      cfg,
		netMagic: netMagic,
		listener: l,
		calls:    make(chan func(), 256),
		done:     make(chan struct{}),
		conns:    make(map[node.ConnID]*serverConn),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	s.node = node.New(cfg, (*serverEnv)(s))
	s.wg.Add(2)
	go s.actorLoop()
	go s.acceptLoop()
	s.call(func() { s.node.Start() })
	return s, nil
}

// Addr returns the node's advertised address.
func (s *NodeServer) Addr() netip.AddrPort { return s.cfg.Self.Addr }

// Do runs fn on the actor goroutine with access to the node, blocking
// until it completes. Use it to query or drive the node safely.
func (s *NodeServer) Do(fn func(n *node.Node)) {
	var wg sync.WaitGroup
	wg.Add(1)
	if !s.call(func() {
		defer wg.Done()
		fn(s.node)
	}) {
		wg.Done()
	}
	wg.Wait()
}

// call enqueues fn for the actor loop; it reports false after shutdown.
func (s *NodeServer) call(fn func()) bool {
	select {
	case <-s.done:
		return false
	case s.calls <- fn:
		return true
	}
}

// Close stops the node, the listener, and every connection.
func (s *NodeServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*serverConn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	s.Do(func(n *node.Node) { n.Stop() })
	close(s.done)
	err := s.listener.Close()
	for _, c := range conns {
		c.close()
	}
	s.wg.Wait()
	return err
}

// actorLoop serializes all node access.
func (s *NodeServer) actorLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			// Drain a final batch so Do callers are not stranded.
			for {
				select {
				case fn := <-s.calls:
					fn()
				default:
					return
				}
			}
		case fn := <-s.calls:
			fn()
		}
	}
}

// acceptLoop registers inbound connections with the node.
func (s *NodeServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		remote, err := netip.ParseAddrPort(conn.RemoteAddr().String())
		if err != nil {
			_ = conn.Close()
			continue
		}
		sc := s.register(conn)
		if sc == nil {
			_ = conn.Close()
			return
		}
		accepted := make(chan bool, 1)
		if !s.call(func() { accepted <- s.node.OnInbound(remote, sc.id) }) {
			sc.close()
			return
		}
		go func() {
			if !<-accepted {
				s.dropConn(sc, false)
				return
			}
			s.startConnIO(sc)
		}()
	}
}

// register allocates a ConnID and bookkeeping for a socket.
func (s *NodeServer) register(conn net.Conn) *serverConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.nextID++
	sc := &serverConn{
		id:     s.nextID,
		conn:   conn,
		outbox: make(chan wire.Message, 1024),
		closed: make(chan struct{}),
	}
	s.conns[sc.id] = sc
	return sc
}

// startConnIO launches the reader and writer goroutines for a connection.
func (s *NodeServer) startConnIO(sc *serverConn) {
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		s.readLoop(sc)
	}()
	go func() {
		defer s.wg.Done()
		s.writeLoop(sc)
	}()
}

// readLoop decodes frames and feeds them to the node.
func (s *NodeServer) readLoop(sc *serverConn) {
	for {
		_ = sc.conn.SetReadDeadline(time.Now().Add(2 * time.Minute))
		// Caller-owned messages: the node retains decoded MsgBlock/MsgTx.
		msg, err := wire.ReadMessage(sc.conn, s.netMagic)
		if err != nil {
			if errors.Is(err, wire.ErrUnknownCommand) {
				continue
			}
			s.dropConn(sc, true)
			return
		}
		if !s.call(func() { s.node.OnMessage(sc.id, msg) }) {
			return
		}
	}
}

// writeLoop drains the outbox onto the socket.
func (s *NodeServer) writeLoop(sc *serverConn) {
	enc := wire.GetEncoder()
	defer enc.Release()
	for {
		select {
		case <-sc.closed:
			return
		case msg := <-sc.outbox:
			_ = sc.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
			if _, err := enc.WriteMessage(sc.conn, msg, s.netMagic); err != nil {
				s.dropConn(sc, true)
				return
			}
		}
	}
}

// dropConn tears a connection down and, when notify is set, informs the
// node.
func (s *NodeServer) dropConn(sc *serverConn, notify bool) {
	sc.close()
	s.mu.Lock()
	delete(s.conns, sc.id)
	s.mu.Unlock()
	if notify {
		s.call(func() { s.node.OnDisconnect(sc.id) })
	}
}

// close shuts the socket and wakes the writer exactly once.
func (c *serverConn) close() {
	c.once.Do(func() {
		close(c.closed)
		_ = c.conn.Close()
	})
}

// serverEnv adapts NodeServer to node.Env. All methods run on the actor
// goroutine (the node only calls Env from within its own callbacks).
type serverEnv NodeServer

var _ node.Env = (*serverEnv)(nil)

// Now implements node.Env.
func (e *serverEnv) Now() time.Time { return time.Now() }

// Rand implements node.Env.
func (e *serverEnv) Rand() *rand.Rand { return e.rng }

// Schedule implements node.Env with a wall-clock timer that re-enters the
// actor loop.
func (e *serverEnv) Schedule(d time.Duration, fn func()) {
	s := (*NodeServer)(e)
	time.AfterFunc(d, func() {
		select {
		case <-s.done:
		default:
			s.call(fn)
		}
	})
}

// Dial implements node.Env: connect asynchronously and report the result.
func (e *serverEnv) Dial(remote netip.AddrPort) {
	s := (*NodeServer)(e)
	go func() {
		conn, err := net.DialTimeout("tcp", remote.String(), 5*time.Second)
		if err != nil {
			s.call(func() { s.node.OnDialResult(remote, 0, err) })
			return
		}
		sc := s.register(conn)
		if sc == nil {
			_ = conn.Close()
			return
		}
		s.startConnIO(sc)
		s.call(func() { s.node.OnDialResult(remote, sc.id, nil) })
	}()
}

// Transmit implements node.Env: the simulated serialization delay is
// already paid on a real socket, so the message goes straight to the
// outbox (dropping the connection when the peer cannot drain it).
func (e *serverEnv) Transmit(conn node.ConnID, msg wire.Message, delay time.Duration) {
	s := (*NodeServer)(e)
	s.mu.Lock()
	sc := s.conns[conn]
	s.mu.Unlock()
	if sc == nil {
		return
	}
	select {
	case sc.outbox <- msg:
	default:
		// Outbox full: the peer is not reading. Drop it.
		go s.dropConn(sc, true)
	}
}

// Disconnect implements node.Env.
func (e *serverEnv) Disconnect(conn node.ConnID) {
	s := (*NodeServer)(e)
	s.mu.Lock()
	sc := s.conns[conn]
	s.mu.Unlock()
	if sc != nil {
		// The node already forgot the peer; do not notify back.
		go s.dropConn(sc, false)
	}
}
