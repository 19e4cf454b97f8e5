package tcp

import (
	"fmt"
	"net"

	"skyway/internal/framed"
	"skyway/internal/obs"
	"skyway/internal/transport"
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

	// blocks holds the executor's blocks. The framed conversations never
	// run under its lock, so a slow transfer on one connection cannot stall
	// another connection's lookup.
	blocks *transport.BlockStore[blockID]
}

// Serve starts an executor block server on ln. It returns immediately; call
// Close to stop.
func Serve(ln net.Listener) *Server {
	s := &Server{blocks: transport.NewBlockStore[blockID]()}
	s.Server = framed.Serve(&framed.SKWT, framed.DefaultPolicy, ln, s.handle)
	return s
}

// Stored reports how many blocks the server currently holds: published and
// not yet dropped.
func (s *Server) Stored() int { return s.blocks.Len() }

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
	switch op {
	case opPut:
		id := parseBlockID(req)
		total, chunks := parseExtent(req[12:])
		framed.Release(req)
		block, err := recvBlock(c, total, chunks)
		if err != nil {
			return err
		}
		s.blocks.Put(id, block)
		ctrSrvBlocks.Inc()
		ctrSrvBlockBytes.Add(int64(len(block)))
	case opGet:
		id := parseBlockID(req)
		framed.Release(req)
		block, ok := s.blocks.Get(id)
		if !ok {
			return c.Send(framed.OpNil, nil)
		}
		ctrSrvFetches.Inc()
		if err := framed.WriteFrame(c.W, opHdr, appendExtent(nil, len(block))); err != nil {
			return err
		}
		return sendBlock(c, block)
	case opDrop:
		s.blocks.Drop(parseBlockID(req))
		framed.Release(req)
	}
	return c.Send(framed.OpOK, nil)
}
