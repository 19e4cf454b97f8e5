package tcp

import (
	"fmt"
	"net"
	"sync"

	"skyway/internal/framed"
	"skyway/internal/freelist"
	"skyway/internal/obs"
)

// Block-server counters, exported on /metrics.
var (
	ctrSrvBlocks     = obs.NewCounter("skyway_transport_blocks_stored_total", "Shuffle blocks stored by TCP block servers.")
	ctrSrvBlockBytes = obs.NewCounter("skyway_transport_block_bytes_total", "Shuffle block bytes stored by TCP block servers.")
	ctrSrvFetches    = obs.NewCounter("skyway_transport_fetches_total", "Block fetches served by TCP block servers.")
)

// blockID keys one shuffle block within an executor's store.
type blockID struct {
	seq, src, dst uint32
}

// Server is one executor's block server: the map side publishes the
// executor's serialized shuffle blocks here, and reducers fetch them over
// the same framed protocol. It is the process boundary of the TCP cluster —
// everything stored here arrived over a real socket, and everything fetched
// leaves over one.
type Server struct {
	*framed.Server

	// mu guards blocks and every parked block's readers and dropped. The
	// framed conversations never run under it, so a slow transfer on one
	// connection cannot stall another connection's lookup.
	mu     sync.Mutex
	blocks map[blockID]*parked
	// pool recycles block buffers: a PUT receives into one, the DROP (or a
	// replacing PUT) gives it back once no GET is sending from it.
	pool freelist.List
}

// parked is one stored block: its bytes and the CRC of each DATA frame it
// arrived in. The CRCs were verified when the bytes landed and are the ones
// every GET serves, so the block leaves exactly as it arrived and damage
// done to the bytes while they sat here fails the fetcher's integrity
// check instead of being re-signed.
type parked struct {
	buf  []byte
	crcs []uint32
	// readers counts the GETs sending from buf; dropped marks a block
	// dropped or replaced while one was, whose buffer the last of them
	// returns to the pool.
	readers int
	dropped bool
}

// Serve starts an executor block server on ln. It returns immediately; call
// Close to stop.
func Serve(ln net.Listener) *Server {
	s := &Server{blocks: make(map[blockID]*parked)}
	s.Server = framed.Serve(&framed.SKWT, framed.DefaultPolicy, ln, s.handle)
	return s
}

// Close stops the server and empties its buffer free list.
func (s *Server) Close() error {
	err := s.Server.Close()
	s.pool.Drain()
	return err
}

// Stored reports how many blocks the server currently holds: published and
// not yet dropped.
func (s *Server) Stored() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks)
}

// park stores b under id, retiring any block it replaces.
func (s *Server) park(id blockID, b *parked) {
	s.mu.Lock()
	old := s.blocks[id]
	s.blocks[id] = b
	s.retire(old)
	s.mu.Unlock()
}

// pin holds the block under id for a GET; the caller unpins it.
func (s *Server) pin(id blockID) *parked {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.blocks[id]
	if b != nil {
		b.readers++
	}
	return b
}

func (s *Server) unpin(b *parked) {
	s.mu.Lock()
	b.readers--
	if b.dropped && b.readers == 0 {
		s.pool.Put(b.buf)
	}
	s.mu.Unlock()
}

func (s *Server) drop(id blockID) {
	s.mu.Lock()
	s.retire(s.blocks[id])
	delete(s.blocks, id)
	s.mu.Unlock()
}

// retire gives a block that left the table back to the pool, or leaves that
// to the last GET still sending from it. Callers hold s.mu.
func (s *Server) retire(b *parked) {
	if b == nil {
		return
	}
	b.dropped = true
	if b.readers == 0 {
		s.pool.Put(b.buf)
	}
}

// requestBytes is each request's exact header size; a request of any other
// size (or any other op) is a protocol violation.
var requestBytes = map[byte]int{opPut: 24, opGet: 12, opDrop: 12}

// handle runs one connection's request loop. Any protocol violation is
// reported in an ERR frame (which keeps a torn upload's structure) and
// severs the connection — the client retries on a fresh one.
func (s *Server) handle(c *framed.Conn) {
	for {
		op, req, err := framed.ReadFrame(c.R)
		if err != nil {
			return
		}
		if err := s.serve(c, op, req); err != nil {
			c.SendErr(err)
			return
		}
	}
}

// serve answers one request. It releases req as soon as the header words
// are parsed, so the pooled buffer is free again for the DATA frames that
// follow.
func (s *Server) serve(c *framed.Conn, op byte, req []byte) error {
	if want, known := requestBytes[op]; !known || len(req) != want {
		framed.Release(req)
		return fmt.Errorf("bad request: op %q with a %d-byte header", op, len(req))
	}
	id := parseBlockID(req)
	switch op {
	case opPut:
		total, chunks := parseExtent(req[12:])
		framed.Release(req)
		if err := checkExtent(total, chunks); err != nil {
			return err
		}
		buf, _ := s.pool.Get(int(total)) // a Go allocation: cannot fail
		b := &parked{buf: buf, crcs: make([]uint32, chunksOf(len(buf)))}
		if err := recvBlock(c, b.buf, b.crcs); err != nil {
			s.pool.Put(b.buf)
			return err
		}
		s.park(id, b)
		ctrSrvBlocks.Inc()
		ctrSrvBlockBytes.Add(int64(len(b.buf)))
	case opGet:
		framed.Release(req)
		b := s.pin(id)
		if b == nil {
			return c.Send(framed.OpNil, nil)
		}
		defer s.unpin(b)
		ctrSrvFetches.Inc()
		if err := framed.WriteFrame(c.W, opHdr, appendExtent(nil, len(b.buf))); err != nil {
			return err
		}
		return sendBlock(c, b.buf, b.crcs)
	case opDrop:
		framed.Release(req)
		s.drop(id)
	}
	return c.Send(framed.OpOK, nil)
}
