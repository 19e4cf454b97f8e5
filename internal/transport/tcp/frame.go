// Package tcp is the real-network transport.Transport: blocks move between
// a driver process and N executor block server processes over
// internal/framed connections (hello "SKWT" v1, CRC-32C frames,
// per-exchange deadline, retry over a fresh dial). This package holds only
// what is specific to blocks: the request headers, the
// chunked block stream with its credit window, and the block servers.
//
// Requests (client → server), on top of framed's common ops:
//
//	'P' PUT        seq(u32) src(u32) dst(u32) total(u64) chunks(u32),
//	               then chunks × DATA frames  → ACK per DATA, then OK
//	'G' GET        seq(u32) src(u32) dst(u32)
//	               → 'H' total(u64) chunks(u32) + chunks × DATA (ACK each),
//	                 or NIL when the block was never published
//	'T' DROP       seq(u32) src(u32) dst(u32) → OK
//
// Any other op, or a known op with a header of the wrong size, is answered
// with an ERR frame and the connection severed.
//
// A damaged transfer is a *framed.TornError inside this package and crosses
// Transport's boundary as a *core.DecodeError (kind "checksum"), so the
// dataflow degradation ladder (and the chaos matrix's closed error set)
// treat a stream torn on the real wire exactly like one torn in a simulated
// transfer.
//
// Flow control: a block travels as DATA frames of at most chunkBytes each,
// and the sender may have at most defaultWindow chunks outstanding — it
// blocks on the receiver's cumulative ACKs before sending more. A slow receiver
// therefore exerts real backpressure on the sender (and on everything
// queued behind it on that connection) instead of ballooning kernel socket
// buffers; the conformance suite pins this with a deliberately slow reader.
package tcp

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"

	"skyway/internal/fault"
	"skyway/internal/framed"
)

const (
	opPut  = 'P'
	opGet  = 'G'
	opDrop = 'T'
	opHdr  = 'H'
)

const (
	// maxBlockBytes caps a declared block size before any buffer is
	// allocated for it, mirroring core's maxSegmentBytes discipline.
	maxBlockBytes = 1 << 30

	chunkBytes = framed.ChunkBytes
	// defaultWindow is how many DATA frames a sender may have outstanding
	// before it blocks on the receiver's ACKs.
	defaultWindow = 8
)

func tornf(format string, args ...any) error {
	return &framed.TornError{Detail: fmt.Sprintf(format, args...)}
}

// appendBlockID appends the seq(u32) src(u32) dst(u32) that names one
// shuffle block; parseBlockID reads it back off the head of a request.
func appendBlockID(b []byte, id blockID) []byte {
	b = binary.BigEndian.AppendUint32(b, id.seq)
	b = binary.BigEndian.AppendUint32(b, id.src)
	return binary.BigEndian.AppendUint32(b, id.dst)
}

func parseBlockID(p []byte) blockID {
	return blockID{
		seq: binary.BigEndian.Uint32(p[0:4]),
		src: binary.BigEndian.Uint32(p[4:8]),
		dst: binary.BigEndian.Uint32(p[8:12]),
	}
}

// appendExtent appends the total(u64) chunks(u32) announcement of an
// n-byte block — the tail of PUT, and all of 'H'.
func appendExtent(b []byte, n int) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(n))
	return binary.BigEndian.AppendUint32(b, uint32(chunksOf(n)))
}

// chunksOf is how many DATA frames carry an n-byte block.
func chunksOf(n int) int { return (n + chunkBytes - 1) / chunkBytes }

func parseExtent(p []byte) (total uint64, chunks uint32) {
	return binary.BigEndian.Uint64(p[0:8]), binary.BigEndian.Uint32(p[8:12])
}

// sendBlock streams block as CRC-framed DATA chunks under the credit
// window: at most defaultWindow chunks are outstanding before the sender
// blocks on the peer's cumulative ACKs. crcs, when not nil, holds each
// chunk's frame CRC as verified when the block arrived (a block server's
// stored block); the frames then carry those instead of a CRC computed
// from the bytes now in memory, so damage done to the bytes while they were
// parked reaches the receiver's integrity check.
//
// Each DATA frame is handed to the kernel as one vectored write (frame
// header + chunk slice straight out of block), so a chunk crosses the
// transport without ever being copied into an intermediate frame buffer.
func sendBlock(c *framed.Conn, block []byte, crcs []uint32) error {
	chunks := chunksOf(len(block))
	outstanding := 0
	acked := uint32(0)
	awaitAck := func() error {
		op, payload, err := c.Recv()
		if err != nil {
			return err
		}
		defer framed.Release(payload)
		if op != framed.OpAck || len(payload) != 4 {
			return fmt.Errorf("transport: want ACK, got frame %q", op)
		}
		idx := binary.BigEndian.Uint32(payload)
		if idx != acked {
			return fmt.Errorf("transport: ACK for chunk %d, want %d", idx, acked)
		}
		acked++
		outstanding--
		return nil
	}
	// One reusable 13-byte header holds the frame header (9 bytes) and the
	// chunk index word (4 bytes); with the CRC folded over index and chunk
	// incrementally, the wire bytes are exactly those of
	// framed.WriteFrame(w, OpData, append(idx, chunk...)) minus the append
	// copy. A write consumes the vector it is given, so every frame's is cut
	// afresh from the same two slots.
	var h [13]byte
	h[0] = framed.OpData
	var slots [2][]byte
	var vec net.Buffers
	for i := 0; i < chunks; i++ {
		body := block[i*chunkBytes : min((i+1)*chunkBytes, len(block))]
		binary.BigEndian.PutUint32(h[1:5], uint32(4+len(body)))
		binary.BigEndian.PutUint32(h[9:13], uint32(i))
		var crc uint32
		if crcs != nil {
			crc = crcs[i]
		} else {
			crc = crc32.Update(crc32.Checksum(h[9:13], framed.CRCTable), framed.CRCTable, body)
		}
		binary.BigEndian.PutUint32(h[5:9], crc)
		// Drain the buffered writer first so bytes stay ordered, then
		// header + chunk leave in one writev.
		if err := c.W.Flush(); err != nil {
			return err
		}
		slots[0], slots[1] = h[:], body
		vec = slots[:]
		if _, err := vec.WriteTo(c.Raw); err != nil {
			return err
		}
		outstanding++
		if outstanding >= defaultWindow {
			if err := awaitAck(); err != nil {
				return err
			}
		}
	}
	for outstanding > 0 {
		if err := awaitAck(); err != nil {
			return err
		}
	}
	return c.W.Flush()
}

// checkExtent bounds-checks a block announcement read off the wire at full
// width, before any buffer is sized from it.
func checkExtent(total uint64, chunks uint32) error {
	if total > maxBlockBytes {
		return tornf("transport block declares %d bytes (cap %d)", total, maxBlockBytes)
	}
	if uint64(chunks) != (total+chunkBytes-1)/chunkBytes {
		return tornf("transport block declares %d chunks for %d bytes", chunks, total)
	}
	return nil
}

// recvBlock receives a block announced at len(block) bytes (checkExtent
// passed) straight into block, DATA frame by DATA frame, acknowledging each
// chunk (the sender's credit). Each frame's body is read from the socket
// into its place in block and checked there; nothing is staged. Every chunk
// but the last must be exactly chunkBytes long, so a block is always cut
// where sendBlock cuts it, and the CRCs recorded in crcs (when not nil; len
// = chunk count) stay valid for serving the block again.
func recvBlock(c *framed.Conn, block []byte, crcs []uint32) error {
	// The index word and the ACK escape into the connection's reader and
	// writer: allocated once per block, not per frame.
	idx := new([4]byte)
	ack := new([4]byte)
	for i, off := 0, 0; off < len(block); i, off = i+1, off+chunkBytes {
		body := block[off:min(off+chunkBytes, len(block))]
		_, crc, err := framed.ReadFrameInto(c.R, func(op byte, n int) ([]byte, []byte, error) {
			if op != framed.OpData || n < 4 {
				return nil, nil, fmt.Errorf("transport: want DATA, got frame %q", op)
			}
			if n-4 != len(body) {
				return nil, nil, tornf("transport DATA chunk %d carries %d bytes, want %d", i, n-4, len(body))
			}
			return idx[:], body, nil
		})
		if err != nil {
			return err
		}
		if got := binary.BigEndian.Uint32(idx[:]); got != uint32(i) {
			return fmt.Errorf("transport: DATA chunk %d out of order, want %d", got, i)
		}
		if crcs != nil {
			crcs[i] = crc
		}
		// Failpoint: a slow peer — the receiver stalls before granting the
		// sender's next credit, so the window turns the stall into real
		// sender-side backpressure.
		fault.Sleep(fault.TransportPeerSlow)
		binary.BigEndian.PutUint32(ack[:], uint32(i))
		if err := c.Send(framed.OpAck, ack[:]); err != nil {
			return err
		}
	}
	return nil
}
