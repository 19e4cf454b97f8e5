package framed

import (
	"fmt"
	"net"
	"sync"
	"time"

	"skyway/internal/fault"
)

// Client is the dialing side of one protocol: at most one cached connection
// per peer address, handed out exclusively for the duration of an exchange
// and returned only if the exchange succeeded. Any failure discards the
// connection — the next attempt dials fresh. Safe for concurrent use; two
// concurrent exchanges with one address simply use two connections.
type Client struct {
	proto  *Proto
	policy Policy

	mu   sync.Mutex
	idle map[string]*Conn
}

// NewClient builds a client for proto under policy (DefaultPolicy outside
// tests).
func NewClient(proto *Proto, policy Policy) *Client {
	return &Client{proto: proto, policy: policy, idle: make(map[string]*Conn)}
}

// take removes and returns the connection cached for addr, if any.
func (c *Client) take(addr string) *Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	cn := c.idle[addr]
	delete(c.idle, addr)
	return cn
}

// dial connects to addr and sends the hello. The hello goes out at once,
// under the deadline: the server severs a connection that stays silent.
func (c *Client) dial(addr string) (*Conn, error) {
	p := c.proto
	if err := fault.Inject(p.DialFault); err != nil {
		return nil, fmt.Errorf("%s: dial %s: %w", p.Name, addr, err)
	}
	raw, err := net.DialTimeout("tcp", addr, c.policy.Timeout)
	if err != nil {
		return nil, fmt.Errorf("%s: dial %s: %w", p.Name, addr, err)
	}
	p.Dials.Inc()
	err = armed(raw, c.policy.Timeout, func() error {
		_, err := raw.Write(p.hello())
		return err
	})
	if err != nil {
		raw.Close()
		return nil, fmt.Errorf("%s: hello %s: %w", p.Name, addr, err)
	}
	return newConn(raw), nil
}

// Exchange runs fn — one request/response conversation — against a
// connection to addr, retrying on fresh connections with doubling backoff.
// fn runs once per attempt and must be safe to repeat. A *TornError is
// retried too — the peer's stored bytes are intact, so a fresh conversation
// can succeed — and stays reachable with errors.As when the budget runs out.
func (c *Client) Exchange(addr string, fn func(*Conn) error) error {
	var err error
	for attempt := 0; attempt <= c.policy.Retries; attempt++ {
		if attempt > 0 {
			c.proto.Retries.Inc()
			time.Sleep(c.policy.Backoff << (attempt - 1))
		}
		if err = c.attempt(addr, fn); err == nil {
			return nil
		}
	}
	return fmt.Errorf("%s: exchange with %s failed after %d attempts: %w", c.proto.Name, addr, c.policy.Retries+1, err)
}

func (c *Client) attempt(addr string, fn func(*Conn) error) error {
	cn := c.take(addr)
	if fault.Eval(c.proto.DropFault) && cn != nil {
		cn.Raw.Close()
		cn = nil
	}
	if cn == nil {
		var err error
		if cn, err = c.dial(addr); err != nil {
			return err
		}
	}
	fault.Sleep(c.proto.DelayFault)
	if err := armed(cn.Raw, c.policy.Timeout, func() error { return fn(cn) }); err != nil {
		// The exchange died mid-frame (or answered out of order); the
		// stream state is unknown.
		cn.Raw.Close()
		return err
	}
	c.put(addr, cn)
	return nil
}

// put returns a healthy connection to the idle cache (displacing — and
// closing — any connection cached for addr in the meantime).
func (c *Client) put(addr string, cn *Conn) {
	c.mu.Lock()
	old := c.idle[addr]
	c.idle[addr] = cn
	c.mu.Unlock()
	if old != nil {
		old.Raw.Close()
	}
}

// Connect dials addr once, without retry, and caches the connection for the
// first exchange — for a caller that wants an unreachable peer to fail its
// own start-up rather than its first request.
func (c *Client) Connect(addr string) error {
	cn, err := c.dial(addr)
	if err == nil {
		c.put(addr, cn)
	}
	return err
}

// Close discards every idle connection. The client stays usable: a later
// exchange dials again.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for addr, cn := range c.idle {
		cn.Raw.Close()
		delete(c.idle, addr)
	}
}
