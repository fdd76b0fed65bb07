// Package tcpnet carries the Bitcoin wire protocol over real TCP
// sockets, so the crawler and scanner from internal/crawler run
// end-to-end against genuine network I/O rather than in-process stubs.
//
// Three endpoint behaviours cover the paper's node classes:
//
//   - Server: a reachable endpoint that completes the VERSION/VERACK
//     handshake and serves GETADDR from a configured address book
//     (optionally with the §IV-B malicious unreachable-only behaviour);
//   - responsive stub: accepts the TCP connection and immediately closes
//     it (the FIN answer the paper's Scapy probe classifies as an
//     unreachable node running Bitcoin);
//   - silent: no listener at all — dials time out.
package tcpnet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/wire"
)

// Defaults for socket deadlines.
const (
	// DefaultDialTimeout bounds connection establishment.
	DefaultDialTimeout = 2 * time.Second
	// DefaultIOTimeout bounds individual reads and writes.
	DefaultIOTimeout = 5 * time.Second
	// DefaultDialRetries is how many extra connection attempts a Dialer
	// makes after a transient failure (refused/reset/timeout).
	DefaultDialRetries = 2
	// DefaultRetryBackoff is the delay before the first retry; it doubles
	// on each further attempt.
	DefaultRetryBackoff = 100 * time.Millisecond
)

// ServerConfig parameterizes a reachable TCP endpoint. It speaks the
// SimNet wire magic and bounds per-message socket I/O by DefaultIOTimeout.
type ServerConfig struct {
	// Book is the address set served to GETADDR, paged at min(23%,
	// 1000) per response like Bitcoin Core.
	Book []wire.NetAddress
	// OmitSelf suppresses the self-advertisement — the malicious flooder
	// behaviour the detection heuristic keys on.
	OmitSelf bool
}

// serverUserAgent is advertised in the server's VERSION.
const serverUserAgent = "/Satoshi:0.20.1(repro-tcp)/"

// Server is a reachable wire-protocol endpoint over TCP.
type Server struct {
	cfg      ServerConfig
	listener net.Listener
	// self is the listener's address, advertised in handshakes and
	// self-ADDR.
	self wire.NetAddress

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer starts a server listening on listenAddr (use "127.0.0.1:0"
// for an ephemeral port).
func NewServer(cfg ServerConfig, listenAddr string) (*Server, error) {
	l, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", listenAddr, err)
	}
	s := &Server{
		cfg:      cfg,
		listener: l,
		conns:    make(map[net.Conn]struct{}),
	}
	if ap, err := netip.ParseAddrPort(l.Addr().String()); err == nil {
		s.self = wire.NetAddress{
			Addr:      ap,
			Services:  wire.SFNodeNetwork,
			Timestamp: time.Now(),
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() netip.AddrPort { return s.self.Addr }

// Close stops the listener and all live connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.listener.Close()
	for _, c := range conns {
		// Close errors on teardown are expected (peer may have gone).
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

// acceptLoop serves connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// serve handles one inbound connection: handshake, then request loop. The
// connection owns a pooled Encoder/Decoder pair for its lifetime, so the
// per-message framing path does not allocate. Messages from dec are reused
// per command; serve never retains one across reads.
func (s *Server) serve(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	enc := wire.GetEncoder()
	defer enc.Release()
	dec := wire.GetDecoder()
	defer dec.Release()
	deadline := func() { _ = conn.SetDeadline(time.Now().Add(DefaultIOTimeout)) }

	// Expect the initiator's VERSION.
	deadline()
	msg, err := dec.ReadMessage(conn, wire.SimNet)
	if err != nil {
		return
	}
	if _, ok := msg.(*wire.MsgVersion); !ok {
		return
	}
	// Respond VERSION then VERACK.
	ours := &wire.MsgVersion{
		ProtocolVersion: wire.ProtocolVersion,
		Services:        wire.SFNodeNetwork,
		Timestamp:       time.Now(),
		AddrMe:          s.self,
		UserAgent:       serverUserAgent,
	}
	deadline()
	if _, err := enc.WriteMessage(conn, ours, wire.SimNet); err != nil {
		return
	}
	deadline()
	if _, err := enc.WriteMessage(conn, &wire.MsgVerAck{}, wire.SimNet); err != nil {
		return
	}

	cursor := 0
	pong := &wire.MsgPong{}
	reply := &wire.MsgAddr{}
	var pageBuf []wire.NetAddress
	for {
		deadline()
		msg, err := dec.ReadMessage(conn, wire.SimNet)
		if err != nil {
			if errors.Is(err, wire.ErrUnknownCommand) {
				continue // skip and keep serving
			}
			return
		}
		switch m := msg.(type) {
		case *wire.MsgVerAck:
			// Handshake complete; nothing to do.
		case *wire.MsgPing:
			pong.Nonce = m.Nonce
			deadline()
			if _, err := enc.WriteMessage(conn, pong, wire.SimNet); err != nil {
				return
			}
		case *wire.MsgGetAddr:
			pageBuf = s.page(&cursor, pageBuf[:0])
			reply.AddrList = pageBuf
			deadline()
			if _, err := enc.WriteMessage(conn, reply, wire.SimNet); err != nil {
				return
			}
		default:
			// Ignore everything else; the crawler only needs ADDR.
		}
	}
}

// page appends the next GETADDR response slice to out, advancing the
// cursor; a drained book repeats its first page (Algorithm 1's stop
// condition). Callers reuse out across pages — the previous page must be
// fully written to the socket first.
func (s *Server) page(cursor *int, out []wire.NetAddress) []wire.NetAddress {
	book := s.cfg.Book
	if !s.cfg.OmitSelf {
		out = append(out, s.self)
	}
	if len(book) == 0 {
		return out
	}
	size := len(book) * 23 / 100
	if size > wire.MaxAddrPerMsg-len(out) {
		size = wire.MaxAddrPerMsg - len(out)
	}
	if size < 1 {
		size = 1
	}
	if *cursor >= len(book) {
		end := size
		if end > len(book) {
			end = len(book)
		}
		return append(out, book[:end]...)
	}
	end := *cursor + size
	if end > len(book) {
		end = len(book)
	}
	out = append(out, book[*cursor:end]...)
	*cursor = end
	return out
}

// ResponsiveStub listens and immediately closes every accepted
// connection — the unreachable-but-running-Bitcoin behaviour the scanner
// classifies as responsive.
type ResponsiveStub struct {
	listener net.Listener
	wg       sync.WaitGroup
}

// NewResponsiveStub starts a stub on listenAddr.
func NewResponsiveStub(listenAddr string) (*ResponsiveStub, error) {
	l, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", listenAddr, err)
	}
	s := &ResponsiveStub{listener: l}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			// Read nothing; close immediately (FIN).
			_ = conn.Close()
		}
	}()
	return s, nil
}

// Addr returns the stub's listening address.
func (s *ResponsiveStub) Addr() netip.AddrPort {
	ap, err := netip.ParseAddrPort(s.listener.Addr().String())
	if err != nil {
		return netip.AddrPort{}
	}
	return ap
}

// Close stops the stub.
func (s *ResponsiveStub) Close() error {
	err := s.listener.Close()
	s.wg.Wait()
	return err
}
