package registry

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"skyway/internal/framed"
)

// stallListener accepts connections and never responds — the failure mode
// a LOOKUP without deadlines hangs on forever.
type stallListener struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
	acc   int
	done  chan struct{}
}

func newStallListener(t *testing.T) *stallListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stallListener{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.acc++
			s.mu.Unlock()
			// Read and discard forever, sending nothing back.
			go func() {
				buf := make([]byte, 256)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.mu.Lock()
		for _, c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-s.done
	})
	return s
}

func (s *stallListener) accepted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acc
}

func TestTCPClientTimesOutOnStalledServer(t *testing.T) {
	s := newStallListener(t)

	c, err := dial(s.ln.Addr().String(),
		framed.Policy{Timeout: 30 * time.Millisecond, Retries: 2, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	if _, err := c.Lookup("some.Class"); err == nil {
		t.Fatal("Lookup against a stalled server succeeded")
	}
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("Lookup took %v; deadlines are not bounding the stall", elapsed)
	}
	// Each retry must have abandoned the dead connection and dialed fresh:
	// a timed-out exchange leaves the old stream mid-frame.
	if got := s.accepted(); got != 3 {
		t.Errorf("server accepted %d connections, want 3 (1 initial + 2 retries)", got)
	}

	if _, err := c.RequestView(); err == nil {
		t.Fatal("RequestView against a stalled server succeeded")
	}
	if _, err := c.Reverse(1); err == nil {
		t.Fatal("Reverse against a stalled server succeeded")
	}
}

// rawExchange sends one request frame to a live registry server through a
// bare framed client — no registry client in the way to refuse the request —
// and returns what the exchange came back with.
func rawExchange(t *testing.T, reg *Registry, op byte, payload []byte) error {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(reg, ln)
	defer srv.Close()
	cli := framed.NewClient(&framed.SKYR, framed.Policy{Timeout: time.Second})
	defer cli.Close()
	return cli.Exchange(ln.Addr().String(), func(c *framed.Conn) error {
		if err := framed.WriteFrame(c.W, op, payload); err != nil {
			return err
		}
		_, resp, err := c.Recv()
		framed.Release(resp)
		return err
	})
}

// A request the server cannot parse — an op outside the table, a payload
// shorter or longer than the op's shape — comes back as an ERR frame, which
// the client surfaces as a structured *framed.RemoteError naming the
// problem, rather than a bare EOF from a silent sever.
func TestMalformedRequestComesBackAsERR(t *testing.T) {
	for _, tc := range []struct {
		name    string
		op      byte
		payload []byte
		want    string
	}{
		{"unknown op", 'Z', encode(0, msg{nonce: 1}), "unknown op"},
		{"short payload", opLookup, []byte{0, 0}, "malformed"},
		{"string longer than payload", opLookup, []byte{0, 0, 0, 1, 0, 0, 0, 9, 'x'}, "malformed"},
		{"trailing bytes", opReverse, append(encode(hasID, msg{nonce: 1, id: 3}), 0xFF), "malformed"},
	} {
		err := rawExchange(t, NewRegistry(), tc.op, tc.payload)
		var re *framed.RemoteError
		if !errors.As(err, &re) {
			t.Errorf("%s: exchange returned %v, want a *framed.RemoteError", tc.name, err)
			continue
		}
		if !strings.Contains(re.Detail, tc.want) {
			t.Errorf("%s: ERR detail %q does not mention %q", tc.name, re.Detail, tc.want)
		}
	}
}

// A VIEW too large for one frame is refused at the sender with an explicit
// error — not streamed, not truncated, not misread as a torn stream — and
// the same client keeps working for requests whose answers fit.
func TestOversizedViewRejectedAtSender(t *testing.T) {
	reg := NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(reg, ln)
	defer srv.Close()
	c, err := dial(ln.Addr().String(), framed.Policy{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	big := strings.Repeat("n", 1<<20)
	for i := 0; i <= framed.MaxPayload>>20; i++ {
		reg.LookupOrAssign(string(rune('a'+i)) + big)
	}
	_, err = c.RequestView()
	var re *framed.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Detail, "over cap") {
		t.Fatalf("RequestView of an over-cap registry = %v, want a *framed.RemoteError naming the cap", err)
	}
	if id, err := c.Lookup("small.Class"); err != nil {
		t.Fatalf("Lookup after the refused VIEW: %v", err)
	} else if name, _ := reg.NameOf(id); name != "small.Class" {
		t.Fatalf("Lookup after the refused VIEW resolved to %q", name)
	}
}

// Every op's request and response survive encode → decode unchanged.
func TestPayloadRoundTrip(t *testing.T) {
	m := msg{nonce: 0xDEADBEEF, id: -7, str: "pkg.Class", table: []entry{{1, "a"}, {-2, ""}, {3, "ccc"}}}
	for op, sh := range shapes {
		for _, s := range []shape{sh.req, sh.resp} {
			got, err := decode(s, encode(s, m))
			if err != nil {
				t.Fatalf("op %q shape %b: %v", op, s, err)
			}
			if again := encode(s, got); string(again) != string(encode(s, m)) {
				t.Errorf("op %q shape %b: re-encoded payload differs", op, s)
			}
		}
	}
}
