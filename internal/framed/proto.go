package framed

import (
	"bufio"
	"net"
	"time"

	"skyway/internal/fault"
	"skyway/internal/obs"
)

// Proto is what distinguishes one protocol on this layer from another: its
// hello, the failpoints its client fires, and its counters. The request ops
// and their payloads belong to the package that speaks the protocol.
type Proto struct {
	// Name prefixes the client's errors ("registry", "transport").
	Name string
	// Magic and Version make up the hello. A server severs any connection
	// whose hello does not match its own byte for byte, so a mixed-version
	// cluster fails loudly at the first exchange instead of desyncing.
	Magic   string
	Version byte

	// Client failpoints ("" = none). DialFault fails a dial attempt with an
	// injected error; DropFault severs the cached connection just before an
	// attempt, exercising the redial path; DelayFault stalls before the
	// exchange (arg duration) — beyond the policy timeout it trips the
	// per-exchange deadline.
	DialFault, DropFault, DelayFault string

	// Dials counts connections dialed, Retries exchanges retried on a fresh
	// connection; both are exported on /metrics.
	Dials, Retries *obs.Counter
}

// The two protocols that run on this layer.
var (
	// SKYR is the type-registry protocol (Algorithm 1's driver daemon). Its
	// op table is in internal/registry/tcp.go. Version 4 moved the registry
	// onto this layer's CRC'd frames; version 3 (unframed, nonce-prefixed
	// requests) and everything before it is severed at the hello.
	SKYR = Proto{
		Name: "registry", Magic: "SKYR", Version: 4,
		DialFault:  fault.RegistryDial,
		DropFault:  fault.RegistryExchangeDrop,
		DelayFault: fault.RegistryExchangeDelay,
		Dials:      obs.NewCounter("skyway_registry_dials_total", "Registry client connections dialed to the driver daemon."),
		Retries:    obs.NewCounter("skyway_registry_retries_total", "Registry exchanges retried on a fresh connection."),
	}
	// SKWT is the block-transport protocol. Its op table is in
	// internal/transport/tcp/frame.go.
	SKWT = Proto{
		Name: "transport", Magic: "SKWT", Version: 1,
		DialFault: fault.TransportDial,
		Dials:     obs.NewCounter("skyway_transport_dials_total", "TCP transport connections dialed to peer block servers."),
		Retries:   obs.NewCounter("skyway_transport_retries_total", "TCP transport exchanges retried on a fresh connection."),
	}
)

func (p *Proto) hello() []byte { return append([]byte(p.Magic), p.Version) }

// Policy is the layer's failure handling: Timeout bounds a dial, a hello and
// each exchange attempt; a failed exchange is retried Retries times, each
// over a fresh connection (a timed-out request leaves the old connection's
// framing in an unknown state), after a Backoff that doubles per retry.
type Policy struct {
	Timeout time.Duration
	Retries int
	Backoff time.Duration
}

// DefaultPolicy is the one policy both protocols run under; only tests
// build a client or server with a shorter one.
var DefaultPolicy = Policy{Timeout: 5 * time.Second, Retries: 2, Backoff: 50 * time.Millisecond}

// Conn is one established connection past its hello. Raw is the socket
// under the buffered pair, for senders that hand the kernel vectored writes
// (flush W first so bytes stay ordered).
type Conn struct {
	Raw net.Conn
	R   *bufio.Reader
	W   *bufio.Writer
}

func newConn(raw net.Conn) *Conn {
	return &Conn{Raw: raw, R: bufio.NewReader(raw), W: bufio.NewWriter(raw)}
}

// Send writes one frame and flushes it.
func (c *Conn) Send(op byte, payload []byte) error {
	if err := WriteFrame(c.W, op, payload); err != nil {
		return err
	}
	return c.W.Flush()
}

// Recv flushes anything buffered (a sender must never block on a response
// to bytes still sitting in its own buffer) and reads one frame. A peer's
// ERR frame comes back as the typed error it carries.
func (c *Conn) Recv() (op byte, payload []byte, err error) {
	if err := c.W.Flush(); err != nil {
		return 0, nil, err
	}
	op, payload, err = ReadFrame(c.R)
	if err == nil && op == OpErr {
		err = DecodeErr(payload)
		Release(payload)
		return 0, nil, err
	}
	return op, payload, err
}

// SendErr reports a failure to the peer before the caller severs the
// connection; best-effort (the peer may already be gone).
func (c *Conn) SendErr(err error) {
	c.Send(OpErr, EncodeErr(err))
}

// armed runs fn with the connection's deadline set timeout ahead. The
// deadline lives exactly as long as fn: the deferred zero-value reset runs
// on EVERY return path, so no exit — a timeout, a torn frame, a protocol
// error — can leak an already-expiring deadline into a later exchange that
// reuses the connection. (Resetting only on the success path poisons the
// next exchange the moment any failure path keeps the connection: its reads
// inherit a deadline that has already passed and fail instantly.)
func armed(raw net.Conn, timeout time.Duration, fn func() error) error {
	raw.SetDeadline(time.Now().Add(timeout))
	defer raw.SetDeadline(time.Time{})
	return fn()
}
