package registry

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"

	"skyway/internal/fault"
	"skyway/internal/framed"
)

// Wire protocol (Algorithm 1's driver daemon), "SKYR" version 4: one
// request/response pair at a time over an internal/framed connection, which
// supplies the hello, the CRC'd frames, the deadline and the retry policy.
// A request is a frame whose op names the operation; the answer is an OK
// frame, or an ERR frame when the request was malformed (unknown op, short
// or overlong payload) or the answer would not fit one frame.
//
//	op               request payload           OK payload
//	'V' REQUEST_VIEW nonce                     nonce table   (id = type ID, str = name)
//	'L' LOOKUP       nonce str(name)           nonce id
//	'R' REVERSE      nonce id                  nonce str(name, "" = unknown)
//	'U' ANNOUNCE     nonce id str(addr)        nonce id
//	'P' PEERS        nonce                     nonce table   (id = executor, str = addr)
//
//	nonce := u32   id := i32   str := len(u32) bytes
//	table := count(u32) {id str}*
//
// ANNOUNCE/PEERS are the peer advertisement: executor block servers publish
// their shuffle listen addresses through the driver's registry, which is how
// a TCP cluster discovers its peers. A VIEW or PEERS table too large for one
// frame (framed.MaxPayload) is refused by the server with an explicit ERR
// rather than streamed: 8 MiB of type names is a misconfiguration.
//
// The nonce makes the client's retry policy safe against replay: every
// registry operation is idempotent on the server (LookupOrAssign assigns at
// most once per name), but a duplicated request — a retry racing a response
// that was merely delayed, or a frame replayed by the transport — leaves an
// extra response buffered on the connection, and without the nonce the
// *next* exchange would consume that stale response as its own answer,
// silently crossing type IDs between classes. The server echoes the request
// nonce; a client that reads a response with the wrong nonce severs the
// connection and retries on a fresh one.
const (
	opView     = 'V'
	opLookup   = 'L'
	opReverse  = 'R'
	opAnnounce = 'U'
	opPeers    = 'P'
)

// msg is a request or response payload; shape says which fields after the
// nonce are on the wire, in the order id, str, table.
type msg struct {
	nonce uint32
	id    int32
	str   string
	table []entry
}

type entry struct {
	id  int32
	str string
}

type shape uint8

const (
	hasID shape = 1 << iota
	hasStr
	hasTable
)

// shapes is the op table above: each op's request and response shape.
var shapes = map[byte]struct{ req, resp shape }{
	opView:     {0, hasTable},
	opLookup:   {hasStr, hasID},
	opReverse:  {hasID, hasStr},
	opAnnounce: {hasID | hasStr, hasID},
	opPeers:    {0, hasTable},
}

func appendStr(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func encode(sh shape, m msg) []byte {
	b := binary.BigEndian.AppendUint32(nil, m.nonce)
	if sh&hasID != 0 {
		b = binary.BigEndian.AppendUint32(b, uint32(m.id))
	}
	if sh&hasStr != 0 {
		b = appendStr(b, m.str)
	}
	if sh&hasTable != 0 {
		b = binary.BigEndian.AppendUint32(b, uint32(len(m.table)))
		for _, e := range m.table {
			b = appendStr(binary.BigEndian.AppendUint32(b, uint32(e.id)), e.str)
		}
	}
	return b
}

// payload is a bounds-checked cursor over a received payload: every length
// it reads off the wire is compared at full width against the bytes that
// are actually left before anything is sliced or sized from it, and the
// first short read latches.
type payload struct {
	b     []byte
	short bool
}

func (p *payload) u32() uint32 {
	if len(p.b) < 4 {
		p.short, p.b = true, nil
		return 0
	}
	v := binary.BigEndian.Uint32(p.b)
	p.b = p.b[4:]
	return v
}

func (p *payload) str() string {
	n := p.u32()
	if uint64(n) > uint64(len(p.b)) {
		p.short, p.b = true, nil
		return ""
	}
	s := string(p.b[:n])
	p.b = p.b[n:]
	return s
}

// decode parses a payload of the given shape; it must be consumed exactly.
func decode(sh shape, b []byte) (msg, error) {
	p := payload{b: b}
	m := msg{nonce: p.u32()}
	if sh&hasID != 0 {
		m.id = int32(p.u32())
	}
	if sh&hasStr != 0 {
		m.str = p.str()
	}
	if sh&hasTable != 0 {
		// An entry is at least 8 bytes, so the bytes left bound the count
		// before the table is sized from it.
		n := p.u32()
		if uint64(n) > uint64(len(p.b))/8 {
			return m, fmt.Errorf("registry: table declares %d entries in %d bytes", n, len(p.b))
		}
		m.table = make([]entry, 0, n)
		for i := uint32(0); i < n; i++ {
			m.table = append(m.table, entry{int32(p.u32()), p.str()})
		}
	}
	if p.short || len(p.b) != 0 {
		return m, fmt.Errorf("registry: malformed %d-byte payload (short=%v, %d bytes over)", len(b), p.short, len(p.b))
	}
	return m, nil
}

// Server exposes a Registry over TCP — the driver's daemon thread.
type Server = framed.Server

// Serve starts accepting worker connections on ln. It returns immediately;
// call Close to stop.
func Serve(reg *Registry, ln net.Listener) *Server {
	return framed.Serve(&framed.SKYR, framed.DefaultPolicy, ln, func(c *framed.Conn) {
		for {
			op, req, err := framed.ReadFrame(c.R)
			if err != nil {
				return
			}
			resp, err := reg.answer(op, req)
			framed.Release(req)
			if err == nil {
				err = c.Send(framed.OpOK, resp)
			}
			if err != nil {
				c.SendErr(err)
				return
			}
		}
	})
}

// answer serves one request payload and returns the OK payload, with the
// request nonce echoed ahead of the body so the client can tell this
// response from a stale one left by a replayed request.
func (r *Registry) answer(op byte, req []byte) ([]byte, error) {
	sh, ok := shapes[op]
	if !ok {
		return nil, fmt.Errorf("registry: unknown op %q", op)
	}
	q, err := decode(sh.req, req)
	if err != nil {
		return nil, err
	}
	a := msg{nonce: q.nonce}
	switch op {
	case opView:
		for name, id := range r.View() {
			a.table = append(a.table, entry{id, name})
		}
	case opLookup:
		a.id = r.LookupOrAssign(q.str)
	case opReverse:
		a.str, _ = r.NameOf(q.id) // empty string signals unknown
	case opAnnounce:
		r.Announce(q.id, q.str)
		a.id = q.id
	case opPeers:
		for id, addr := range r.Peers() {
			a.table = append(a.table, entry{id, addr})
		}
	}
	return encode(sh.resp, a), nil
}

// TCPClient is a worker's connection to a remote driver registry. A LOOKUP
// during class loading must not hang an executor forever, so every exchange
// runs under the framed layer's deadline and retry policy.
type TCPClient struct {
	addr string
	cli  *framed.Client

	// mu serialises exchanges: one connection and one nonce sequence per
	// client. The server echoes the nonce so a response can be matched to
	// its request (see the protocol comment above).
	mu    sync.Mutex
	nonce uint32
}

// Dial connects to a driver registry server.
func Dial(addr string) (*TCPClient, error) { return dial(addr, framed.DefaultPolicy) }

func dial(addr string, policy framed.Policy) (*TCPClient, error) {
	c := &TCPClient{addr: addr, cli: framed.NewClient(&framed.SKYR, policy)}
	// Connect now, so an unreachable driver fails the Dial rather than the
	// first lookup.
	if err := c.cli.Connect(addr); err != nil {
		return nil, err
	}
	return c, nil
}

// call runs one request/response pair. The echoed response nonce is verified
// before the body is trusted: a mismatch means the bytes on the connection
// belong to some other exchange — a response replayed or left behind by a
// duplicated request — so the attempt fails, the framed client severs the
// connection and retries on a fresh one, which makes retries safe against
// replay.
func (c *TCPClient) call(op byte, q msg) (a msg, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh := shapes[op]
	err = c.cli.Exchange(c.addr, func(cn *framed.Conn) error {
		c.nonce++
		q.nonce = c.nonce
		req := encode(sh.req, q)
		if err := framed.WriteFrame(cn.W, op, req); err != nil {
			return err
		}
		// Failpoint: the transport replays the request frame. The server
		// answers both copies; the second response stays buffered on the
		// connection, where only the nonce check keeps the NEXT exchange
		// from adopting it as its answer.
		if fault.Eval(fault.RegistryExchangeDup) {
			if err := framed.WriteFrame(cn.W, op, req); err != nil {
				return err
			}
		}
		rop, resp, err := cn.Recv()
		if err != nil {
			return err
		}
		defer framed.Release(resp)
		if rop != framed.OpOK {
			return fmt.Errorf("registry: want OK, got frame %q", rop)
		}
		if a, err = decode(sh.resp, resp); err != nil {
			return err
		}
		if a.nonce != q.nonce {
			return fmt.Errorf("registry: response nonce %#x does not match request nonce %#x (stale or replayed response)", a.nonce, q.nonce)
		}
		return nil
	})
	return a, err
}

// RequestView implements Client.
func (c *TCPClient) RequestView() (map[string]int32, error) {
	a, err := c.call(opView, msg{})
	if err != nil {
		return nil, err
	}
	out := make(map[string]int32, len(a.table))
	for _, e := range a.table {
		out[e.str] = e.id
	}
	return out, nil
}

// Lookup implements Client.
func (c *TCPClient) Lookup(name string) (int32, error) {
	a, err := c.call(opLookup, msg{str: name})
	if err != nil {
		return -1, err
	}
	return a.id, nil
}

// Reverse implements Client.
func (c *TCPClient) Reverse(id int32) (string, error) {
	a, err := c.call(opReverse, msg{id: id})
	if err != nil {
		return "", err
	}
	if a.str == "" {
		return "", fmt.Errorf("registry: unknown type ID %d", id)
	}
	return a.str, nil
}

// Announce implements PeerClient: it publishes an executor block server's
// shuffle listen address under its executor ID.
func (c *TCPClient) Announce(id int32, addr string) error {
	a, err := c.call(opAnnounce, msg{id: id, str: addr})
	if err == nil && a.id != id {
		err = fmt.Errorf("registry: ANNOUNCE echoed id %d, want %d", a.id, id)
	}
	return err
}

// Peers implements PeerClient: the advertised executor ID → address map.
func (c *TCPClient) Peers() (map[int32]string, error) {
	a, err := c.call(opPeers, msg{})
	if err != nil {
		return nil, err
	}
	out := make(map[int32]string, len(a.table))
	for _, e := range a.table {
		out[e.id] = e.str
	}
	return out, nil
}

// Close implements Client.
func (c *TCPClient) Close() error {
	c.cli.Close()
	return nil
}
