package framed

import (
	"bytes"
	"io"
	"net"
	"sync"
)

// Server is the accepting side of one protocol: it owns the listener, the
// set of open connections and the goroutines serving them. Each accepted
// connection must present the protocol's hello within the policy timeout —
// a peer that connects and says nothing would otherwise pin a goroutine and
// a descriptor until Close — and is then handed to the handler.
type Server struct {
	proto  *Proto
	policy Policy
	handle func(*Conn)
	ln     net.Listener
	wg     sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool
}

// Serve starts accepting connections on ln. handle runs one connection's
// request loop on its own goroutine, after the hello has been checked;
// returning from it severs the connection. Serve returns immediately; call
// Close to stop.
func Serve(proto *Proto, policy Policy, ln net.Listener, handle func(*Conn)) *Server {
	s := &Server{proto: proto, policy: policy, handle: handle, ln: ln, conns: make(map[net.Conn]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listen address peers should dial.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the server, severs open connections, and waits for the
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		raw, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// The conn-set mutation is mutex-guarded against Close: a connection
		// accepted after Close began is severed, never tracked, so no
		// handler can outlive Close's wg.Wait.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			raw.Close()
			return
		}
		s.conns[raw] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, raw)
				s.mu.Unlock()
				raw.Close()
			}()
			s.serve(raw)
		}()
	}
}

// serve checks the hello — a mismatched or silent peer is severed before
// any framing is consumed — and runs the handler.
func (s *Server) serve(raw net.Conn) {
	cn := newConn(raw)
	want := s.proto.hello()
	got := make([]byte, len(want))
	err := armed(raw, s.policy.Timeout, func() error {
		_, err := io.ReadFull(cn.R, got)
		return err
	})
	if err != nil || !bytes.Equal(got, want) {
		return
	}
	s.handle(cn)
}
