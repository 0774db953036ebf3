// Package transport implements the two soil↔seed communication schemes
// the paper compares in §VI-E (Fig. 10): a socket-based RPC path (the
// gRPC role, built on TCP loopback with length-prefixed frames —
// stdlib only) and a lightweight shared-memory buffer usable when seeds
// run as threads of the soil process.
//
// These are real transports measured with real wall-clock time; the
// simulated control plane uses transport/bus instead.
//
// Each frame carries one record and is assembled in a pooled,
// grow-only arena: one Write per frame and zero allocations on the
// steady-state path. See docs/transport.md for the frame format and the
// buffer-ownership contract.
package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
)

// Handler processes one request and returns the response payload.
//
// Ownership contract: req is only valid for the duration of the call —
// the transport reuses its backing buffer for the next frame. dst is a
// length-zero scratch slice with transport-owned, connection-local
// capacity; handlers should append their response to dst and return
// the result. Returning a slice not derived from dst is also permitted
// (the transport copies the response onto the wire before the handler
// can be invoked again on the same connection), but the append form is
// what keeps the response path allocation-free.
type Handler func(dst, req []byte) []byte

// Conn is one seed's channel to its soil.
//
// Ownership contract: the response slice returned by Call aliases the
// connection's receive arena and is valid only until the next call on
// the same Conn — copy to retain.
type Conn interface {
	// Call performs a synchronous request/response round trip.
	Call(req []byte) ([]byte, error)
	Close() error
}

// Server accepts seed connections.
type Server interface {
	// Dial returns a new per-seed connection.
	Dial() (Conn, error)
	Close() error
	Addr() string
}

// --- Shared-buffer transport (seeds as threads of the soil) ---

// SharedBufServer passes requests through an in-process buffer guarded
// by a mutex: the cost of a call is two copies and the handler, no
// syscalls, no serialization framework. This is the scheme FARM selects
// after the Fig. 10 measurements.
type SharedBufServer struct {
	handler Handler
	// mu serializes the calls of the connections' callers, one
	// goroutine per seed (Fig. 10), and Dial and Close.
	mu      sync.Mutex
	buf     []byte
	scratch []byte // handler response destination, reused under mu
	closed  bool
}

// NewSharedBufServer returns a shared-buffer server with the given
// request buffer capacity.
func NewSharedBufServer(bufSize int, h Handler) *SharedBufServer {
	if bufSize <= 0 {
		bufSize = 64 * 1024
	}
	return &SharedBufServer{handler: h, buf: make([]byte, bufSize)}
}

// Addr implements Server.
func (s *SharedBufServer) Addr() string { return "sharedbuf" }

// Close implements Server.
func (s *SharedBufServer) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// Dial implements Server.
func (s *SharedBufServer) Dial() (Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("transport: shared-buffer server closed")
	}
	return &sharedBufConn{srv: s}, nil
}

type sharedBufConn struct {
	srv *SharedBufServer
	// out is the connection-local response arena: the response returned
	// to the caller stays valid until the next call.
	out []byte
}

// ErrTooLarge is returned when a request exceeds the shared buffer.
var ErrTooLarge = errors.New("transport: request exceeds shared buffer capacity")

func (c *sharedBufConn) Call(req []byte) ([]byte, error) {
	s := c.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("transport: shared-buffer server closed")
	}
	if len(req) > len(s.buf) {
		return nil, ErrTooLarge
	}
	// Copy in (the seed writes into the shared region), handle, copy out.
	n := copy(s.buf, req)
	resp := s.handler(s.scratch[:0], s.buf[:n])
	if cap(resp) > cap(s.scratch) {
		s.scratch = resp
	}
	c.out = append(c.out[:0], resp...)
	return c.out, nil
}

func (c *sharedBufConn) Close() error { return nil }

// --- TCP RPC transport (seeds as processes; the gRPC role) ---

// TCPServer serves length-prefixed frames over TCP loopback
// connections, one connection per seed process.
type TCPServer struct {
	handler  Handler
	listener net.Listener
	wg       sync.WaitGroup
	// mu guards closed and conns between the accept loop's goroutine,
	// the per-connection goroutines that untrack themselves, and Close.
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// NewTCPServer starts a server on a random loopback port.
func NewTCPServer(h Handler) (*TCPServer, error) {
	return NewTCPServerOn("127.0.0.1:0", h)
}

// NewTCPServerOn starts a server on an explicit listen address — the
// daemon path, where operators point clients at a configured port.
func NewTCPServerOn(addr string, h Handler) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	s := &TCPServer{handler: h, listener: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

func (s *TCPServer) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *TCPServer) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Addr implements Server.
func (s *TCPServer) Addr() string { return s.listener.Addr().String() }

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn runs one connection's read-handle-write loop on a pooled
// frame arena: each inbound frame is read in place, and the handler's
// response leaves in one Write.
func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.untrack(conn)
	defer conn.Close()
	a := getArena()
	defer putArena(a)
	for {
		req, err := a.read(conn)
		if err != nil {
			return
		}
		if err := a.write(conn, a.handle(s.handler, req)); err != nil {
			return
		}
	}
}

// Close implements Server. It stops accepting new connections and
// drains in-flight Calls before returning: tracked connections are
// half-closed (read side only), so a handler that already accepted a
// request finishes it and writes its response back to the caller, and
// the per-connection goroutine exits on the EOF it reads next. Only
// then are the connections fully closed. A Call in flight at Close time
// therefore completes normally; a Call issued after Close fails.
func (s *TCPServer) Close() error {
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
		// Stop new requests from arriving while leaving the write side
		// open for the in-flight response.
		if hc, ok := c.(interface{ CloseRead() error }); ok {
			_ = hc.CloseRead()
		} else {
			c.Close()
		}
	}
	s.wg.Wait()
	return err
}

// Dial implements Server.
func (s *TCPServer) Dial() (Conn, error) {
	return DialTCP(s.Addr())
}

// DialTCP connects a client to a TCPServer listening at addr — the
// client half of the RPC path for processes that do not host the server
// (a farmctl talking to a running fleetd).
func DialTCP(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial: %w", err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return &tcpConn{c: c, a: getArena()}, nil
}

type tcpConn struct {
	// mu serializes Call and Close from the goroutines that share the
	// connection.
	mu     sync.Mutex
	c      net.Conn
	a      *frameArena
	closed bool
}

func (c *tcpConn) Call(req []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("transport: connection closed")
	}
	if err := c.a.write(c.c, req); err != nil {
		return nil, err
	}
	return c.a.read(c.c)
}

func (c *tcpConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	putArena(c.a)
	c.a = nil
	return c.c.Close()
}
