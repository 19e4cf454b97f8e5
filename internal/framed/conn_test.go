package framed

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// Every connection-lifecycle test below runs against both protocols' hellos:
// the layer is shared, so each regression is pinned for SKYR and SKWT alike.
func eachProto(t *testing.T, fn func(t *testing.T, p *Proto)) {
	for _, p := range []*Proto{&SKYR, &SKWT} {
		p := p
		t.Run(p.Magic, func(t *testing.T) { fn(t, p) })
	}
}

// echo is the test handler: every frame comes back as an OK frame with the
// same payload.
func echo(c *Conn) {
	for {
		_, payload, err := ReadFrame(c.R)
		if err != nil {
			return
		}
		err = c.Send(OpOK, payload)
		Release(payload)
		if err != nil {
			return
		}
	}
}

func serveEcho(t *testing.T, p *Proto, policy Policy) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(p, policy, ln, echo)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// ping runs one echo exchange and checks the payload came back.
func ping(c *Client, addr, word string) error {
	return c.Exchange(addr, func(cn *Conn) error {
		if err := WriteFrame(cn.W, 'x', []byte(word)); err != nil {
			return err
		}
		op, payload, err := cn.Recv()
		if err != nil {
			return err
		}
		defer Release(payload)
		if op != OpOK || string(payload) != word {
			return io.ErrUnexpectedEOF
		}
		return nil
	})
}

// handlers reports how many connections the server is currently serving.
func (s *Server) handlers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// stallOnceProxy stalls the FIRST accepted connection forever (reading and
// discarding, answering nothing) and transparently proxies every later
// connection to the real server at backend. It manufactures the deadline
// regression's exchange N: an attempt that genuinely times out mid-exchange.
type stallOnceProxy struct {
	ln  net.Listener
	mu  sync.Mutex
	acc int
}

func newStallOnceProxy(t *testing.T, backend string) *stallOnceProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stallOnceProxy{ln: ln}
	var wg sync.WaitGroup
	var conns []net.Conn
	var connsMu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			connsMu.Lock()
			conns = append(conns, c)
			connsMu.Unlock()
			p.mu.Lock()
			p.acc++
			n := p.acc
			p.mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				if n == 1 {
					// Exchange N's fate: swallow the request, answer nothing.
					io.Copy(io.Discard, c)
					return
				}
				up, err := net.Dial("tcp", backend)
				if err != nil {
					return
				}
				connsMu.Lock()
				conns = append(conns, up)
				connsMu.Unlock()
				defer up.Close()
				done := make(chan struct{})
				go func() { io.Copy(up, c); up.(*net.TCPConn).CloseWrite(); close(done) }()
				io.Copy(c, up)
				<-done
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		connsMu.Lock()
		for _, c := range conns {
			c.Close()
		}
		connsMu.Unlock()
		wg.Wait()
	})
	return p
}

func (p *stallOnceProxy) accepted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.acc
}

// TestTimeoutDoesNotPoisonNextExchange is the regression test for the
// deadline-lifecycle bug: exchange N times out (its attempt's deadline
// trips), the retry succeeds on a fresh connection, and exchange N+1 reuses
// that healthy connection AFTER the earlier deadline instant has passed. If
// any exit path of an attempt leaked its armed deadline instead of resetting
// it via defer, exchange N+1's first read would fail instantly with a stale
// i/o timeout and force a spurious redial — observable below as a third
// accepted connection (or, with the retry budget exhausted, a failed
// exchange). The dial and retry counters are checked on the way.
func TestTimeoutDoesNotPoisonNextExchange(t *testing.T) {
	eachProto(t, func(t *testing.T, p *Proto) {
		srv := serveEcho(t, p, DefaultPolicy)
		proxy := newStallOnceProxy(t, srv.Addr().String())
		addr := proxy.ln.Addr().String()

		const timeout = 60 * time.Millisecond
		c := NewClient(p, Policy{Timeout: timeout, Retries: 1, Backoff: time.Millisecond})
		defer c.Close()
		dials, retries := p.Dials.Value(), p.Retries.Value()

		// Exchange N: the first attempt stalls and must be killed by its own
		// deadline; the retry lands on a proxied connection and succeeds.
		start := time.Now()
		if err := ping(c, addr, "exchange N"); err != nil {
			t.Fatalf("exchange N with one stalled attempt: %v", err)
		}
		if elapsed := time.Since(start); elapsed < timeout {
			t.Fatalf("exchange returned in %v, before the %v deadline could have tripped — exchange N never timed out", elapsed, timeout)
		}
		if got := proxy.accepted(); got != 2 {
			t.Fatalf("proxy accepted %d connections after exchange N, want 2 (stalled + retry)", got)
		}
		if d, r := p.Dials.Value()-dials, p.Retries.Value()-retries; d != 2 || r != 1 {
			t.Errorf("exchange N counted %d dials and %d retries, want 2 and 1", d, r)
		}

		// Outlive the timed-out attempt's deadline instant, then run exchange
		// N+1 on the reused connection.
		time.Sleep(timeout + 20*time.Millisecond)
		if err := ping(c, addr, "exchange N+1"); err != nil {
			t.Fatalf("exchange N+1 on the reused connection: %v (stale deadline poisoned the exchange)", err)
		}
		if got := proxy.accepted(); got != 2 {
			t.Errorf("proxy accepted %d connections after exchange N+1, want still 2 — a leaked deadline forced a redial", got)
		}
	})
}

// A peer speaking a different framing generation — or the other protocol —
// must be severed at the hello, not silently desynced: without the version
// check the server would parse a foreign peer's first bytes as a frame
// header and misread everything after it.
func TestServerSeversVersionMismatch(t *testing.T) {
	eachProto(t, func(t *testing.T, p *Proto) {
		srv := serveEcho(t, p, DefaultPolicy)
		other := &SKWT
		if p == other {
			other = &SKYR
		}
		for _, tc := range []struct {
			name  string
			hello []byte
		}{
			// A pre-hello registry client's first bytes: nonce(u32) then op.
			{"versionless", []byte{0, 0, 0, 1, 'V'}},
			{"previous version", append([]byte(p.Magic), p.Version-1)},
			{"next version", append([]byte(p.Magic), p.Version+1)},
			{"other protocol", other.hello()},
		} {
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(tc.hello); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			var b [1]byte
			if n, err := conn.Read(b[:]); err == nil || n != 0 {
				t.Errorf("%s client got %d bytes (err=%v), want severed connection", tc.name, n, err)
			}
			conn.Close()
		}
	})
}

// A peer that connects and never finishes its hello must not pin a handler
// goroutine and a descriptor until Close: the hello has to arrive within the
// policy timeout or the connection is severed. The handler count returns to
// zero WITHOUT Close being called.
func TestServerSeversSilentDialer(t *testing.T) {
	eachProto(t, func(t *testing.T, p *Proto) {
		const timeout = 50 * time.Millisecond
		srv := serveEcho(t, p, Policy{Timeout: timeout})
		for _, sent := range [][]byte{nil, []byte(p.Magic[:2])} {
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(sent); err != nil {
				t.Fatal(err)
			}
			// The server's sever shows up as EOF on the silent side, no
			// sooner than the hello deadline.
			start := time.Now()
			conn.SetReadDeadline(start.Add(5 * time.Second))
			var b [1]byte
			if n, err := conn.Read(b[:]); err != io.EOF || n != 0 {
				t.Fatalf("silent dialer (%d hello bytes) read %d bytes, err=%v; want EOF from the server's sever", len(sent), n, err)
			}
			if waited := time.Since(start); waited < timeout/2 {
				t.Errorf("severed after %v, well before the %v hello deadline", waited, timeout)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for srv.handlers() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%d handlers still pinned by silent dialers", srv.handlers())
			}
			time.Sleep(time.Millisecond)
		}
		// A peer that does say hello is unaffected by the hello deadline
		// having long passed when its next request arrives.
		c := NewClient(p, Policy{Timeout: time.Second})
		defer c.Close()
		if err := ping(c, srv.Addr().String(), "first"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * timeout)
		if err := ping(c, srv.Addr().String(), "after the hello deadline"); err != nil {
			t.Fatalf("idle connection severed by a leaked hello deadline: %v", err)
		}
	})
}

// A client must survive its cached connection dying under it: the next
// exchange fails on the dead socket, and the retry path redials.
func TestClientRecoversAfterRedial(t *testing.T) {
	eachProto(t, func(t *testing.T, p *Proto) {
		srv := serveEcho(t, p, DefaultPolicy)
		addr := srv.Addr().String()
		c := NewClient(p, Policy{Timeout: time.Second, Retries: 2, Backoff: time.Millisecond})
		defer c.Close()
		if err := ping(c, addr, "before"); err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		c.idle[addr].Raw.Close()
		c.mu.Unlock()
		if err := ping(c, addr, "after"); err != nil {
			t.Fatalf("exchange after severed connection: %v", err)
		}
	})
}

// TestServerCloseDuringAcceptStorm hammers a Server with concurrent dials
// while Close runs, many rounds. Pinned invariants (under -race): no handler
// goroutine outlives Close (wg.Wait covers the accept window), a connection
// accepted after Close is severed rather than tracked, and Close returns
// exactly once with the listener down.
func TestServerCloseDuringAcceptStorm(t *testing.T) {
	eachProto(t, func(t *testing.T, p *Proto) {
		for round := 0; round < 20; round++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := Serve(p, DefaultPolicy, ln, echo)
			addr := ln.Addr().String()

			var dialers sync.WaitGroup
			for i := 0; i < 8; i++ {
				dialers.Add(1)
				go func() {
					defer dialers.Done()
					for j := 0; j < 5; j++ {
						c := NewClient(p, Policy{Timeout: 200 * time.Millisecond})
						ping(c, addr, "storm") // may fail mid-close; must not hang or race
						c.Close()
					}
				}()
			}
			// Close concurrently with the dial storm; vary the overlap window.
			time.Sleep(time.Duration(round%4) * 500 * time.Microsecond)
			if err := srv.Close(); err != nil {
				t.Fatalf("round %d: Close: %v", round, err)
			}
			dialers.Wait()
			if n := srv.handlers(); n != 0 {
				t.Fatalf("round %d: %d handlers outlived Close", round, n)
			}
			// The listener must be down: a fresh dial cannot reach a handler.
			c := NewClient(p, Policy{Timeout: 50 * time.Millisecond})
			if err := ping(c, addr, "after Close"); err == nil {
				t.Fatalf("round %d: exchange succeeded against a closed server", round)
			}
			c.Close()
		}
	})
}

// The frame bytes are the wire contract (SKWT is version 1 since PR 8): op,
// big-endian length, CRC-32C of the payload, payload.
func TestFrameGoldenBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, OpData, []byte("skyway")); err != nil {
		t.Fatal(err)
	}
	want := []byte{'D', 0, 0, 0, 6, 0x8f, 0x46, 0xcd, 0x05, 's', 'k', 'y', 'w', 'a', 'y'}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("frame bytes % x, want % x", buf.Bytes(), want)
	}
	if got := SKWT.hello(); !bytes.Equal(got, []byte("SKWT\x01")) {
		t.Errorf("SKWT hello % x", got)
	}
	if got := SKYR.hello(); !bytes.Equal(got, []byte("SKYR\x04")) {
		t.Errorf("SKYR hello % x", got)
	}
}
