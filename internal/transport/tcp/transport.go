package tcp

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"skyway/internal/core"
	"skyway/internal/framed"
	"skyway/internal/freelist"
	"skyway/internal/transport"
)

// Transport is the real-network transport.Transport: every block crosses
// loopback (or the LAN) twice — once when the map side PUTs it to the block
// server that owns it, once when the reduce side GETs it back. Its I/O times
// are measured wall-clock, so a Breakdown produced under this transport
// reports real I/O where the simulator reports modelled I/O.
//
// Block placement follows the simulator's locality story: the blocks mapper
// src produced live on executor process src, so a reduce task on executor
// dst doing Fetch(src, dst) reads remotely for every src != dst.
type Transport struct {
	peers map[int]string // executor ID → block-server address
	cli   *framed.Client
	// pool recycles fetched blocks across rounds: a round hands a block's
	// buffer back when the key is dropped or fetched again, or the round
	// closes.
	pool freelist.List
}

// New builds a TCP transport over the given executor ID → address map
// (usually the snapshot a registry PeerClient returned from Peers).
func New(peers map[int]string) *Transport {
	t := &Transport{peers: make(map[int]string, len(peers)), cli: framed.NewClient(&framed.SKWT, framed.DefaultPolicy)}
	for id, addr := range peers {
		t.peers[id] = addr
	}
	return t
}

// exchange runs one conversation with executor ex's block server. It is the
// one boundary where the framed layer's errors become the transport's: a
// torn stream that outlived the retry budget surfaces as the bare
// *core.DecodeError the dataflow degradation ladder branches on.
func (t *Transport) exchange(ex int, fn func(*framed.Conn) error) error {
	addr, ok := t.peers[ex]
	if !ok {
		return fmt.Errorf("transport: no block server advertised for executor %d", ex)
	}
	err := t.cli.Exchange(addr, fn)
	var te *framed.TornError
	if errors.As(err, &te) {
		return &core.DecodeError{Kind: core.DecodeChecksum, Detail: te.Detail}
	}
	return err
}

// awaitOK reads the server's closing OK frame.
func awaitOK(c *framed.Conn) error {
	op, payload, err := c.Recv()
	if err != nil {
		return err
	}
	framed.Release(payload)
	if op != framed.OpOK {
		return fmt.Errorf("transport: want OK, got frame %q", op)
	}
	return nil
}

// NewShuffle implements transport.Transport.
func (t *Transport) NewShuffle(seq int) (transport.Shuffle, error) {
	return &tcpShuffle{t: t, seq: uint32(seq), fetched: make(map[blockID][]byte)}, nil
}

// Measured implements transport.Transport: every charge is the socket time
// the exchanges actually clocked, every attempt included.
func (t *Transport) Measured() bool { return true }

// Close implements transport.Transport: the idle connections and the free
// list go.
func (t *Transport) Close() error {
	t.cli.Close()
	t.pool.Drain()
	return nil
}

// tcpShuffle is one round's block exchange over the peer block servers.
type tcpShuffle struct {
	t   *Transport
	seq uint32

	// fetched holds the buffer each key's last Fetch returned, until the
	// key is dropped or fetched again or the round closes.
	mu      sync.Mutex
	fetched map[blockID][]byte
}

// hold records buf as id's fetched bytes (nil: none) and returns the buffer
// it replaces to the pool.
func (s *tcpShuffle) hold(id blockID, buf []byte) {
	s.mu.Lock()
	old := s.fetched[id]
	if buf != nil {
		s.fetched[id] = buf
	} else {
		delete(s.fetched, id)
	}
	s.mu.Unlock()
	s.t.pool.Put(old)
}

func (s *tcpShuffle) id(src, dst int) blockID {
	return blockID{seq: s.seq, src: uint32(src), dst: uint32(dst)}
}

// Put implements transport.Shuffle: the block lands on executor src's
// server — request header out, the block streamed under the credit window,
// OK back. block is only read, and only until Put returns.
func (s *tcpShuffle) Put(src, dst int, block []byte) (time.Duration, error) {
	start := time.Now()
	hdr := appendExtent(appendBlockID(nil, s.id(src, dst)), len(block))
	err := s.t.exchange(src, func(c *framed.Conn) error {
		if err := framed.WriteFrame(c.W, opPut, hdr); err != nil {
			return err
		}
		if err := sendBlock(c, block, nil); err != nil {
			return err
		}
		return awaitOK(c)
	})
	return time.Since(start), err
}

// Fetch implements transport.Shuffle: request frame out, 'H' + DATA frames
// or NIL (the server never had the block) back. The block is received
// straight into a buffer from the transport's free list, which stays the
// caller's until the key is dropped or fetched again or the round closes —
// a private copy, safe to tear for fault injection.
func (s *tcpShuffle) Fetch(src, dst int) ([]byte, time.Duration, error) {
	start := time.Now()
	id := s.id(src, dst)
	s.hold(id, nil)
	req := appendBlockID(nil, id)
	var block []byte
	err := s.t.exchange(src, func(c *framed.Conn) error {
		block = nil
		if err := framed.WriteFrame(c.W, opGet, req); err != nil {
			return err
		}
		rop, payload, err := c.Recv()
		if err != nil {
			return err
		}
		defer framed.Release(payload)
		switch {
		case rop == framed.OpNil:
			return nil
		case rop == opHdr && len(payload) == 12:
			total, chunks := parseExtent(payload)
			if err := checkExtent(total, chunks); err != nil {
				return err
			}
			buf, _ := s.t.pool.Get(int(total)) // a Go allocation: cannot fail
			if err := recvBlock(c, buf, nil); err != nil {
				s.t.pool.Put(buf)
				return err
			}
			block = buf
			return nil
		default:
			return fmt.Errorf("transport: want HDR or NIL, got frame %q (%d bytes)", rop, len(payload))
		}
	})
	if block != nil {
		s.hold(id, block)
	}
	return block, time.Since(start), err
}

// Drop implements transport.Shuffle; best-effort (an unreachable server just
// keeps the block until its process exits). The key's fetched bytes go back
// to the free list.
func (s *tcpShuffle) Drop(src, dst int) {
	id := s.id(src, dst)
	s.hold(id, nil)
	s.t.exchange(src, func(c *framed.Conn) error {
		if err := framed.WriteFrame(c.W, opDrop, appendBlockID(nil, id)); err != nil {
			return err
		}
		return awaitOK(c)
	})
}

// Close implements transport.Shuffle: every block still fetched goes back
// to the free list. Blocks the reducers dropped are gone from the servers;
// anything left (an aborted stage) stays there, keyed by a seq no future
// round reuses.
func (s *tcpShuffle) Close() error {
	s.mu.Lock()
	for _, buf := range s.fetched {
		s.t.pool.Put(buf)
	}
	clear(s.fetched)
	s.mu.Unlock()
	return nil
}
