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
	return binary.BigEndian.AppendUint32(b, uint32((n+chunkBytes-1)/chunkBytes))
}

func parseExtent(p []byte) (total uint64, chunks uint32) {
	return binary.BigEndian.Uint64(p[0:8]), binary.BigEndian.Uint32(p[8:12])
}

// sendBlock streams block as CRC-framed DATA chunks under the credit
// window: at most defaultWindow chunks are outstanding before the sender
// blocks on the peer's cumulative ACKs.
//
// Each DATA frame is handed to the kernel as one vectored write (frame
// header + chunk slice straight out of block), so a chunk crosses the
// transport without ever being copied into an intermediate frame buffer.
func sendBlock(c *framed.Conn, block []byte) error {
	chunks := (len(block) + chunkBytes - 1) / chunkBytes
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
	// copy.
	var h [13]byte
	h[0] = framed.OpData
	vec := make(net.Buffers, 0, 2)
	for i := 0; i < chunks; i++ {
		lo, hi := i*chunkBytes, (i+1)*chunkBytes
		if hi > len(block) {
			hi = len(block)
		}
		body := block[lo:hi]
		binary.BigEndian.PutUint32(h[1:5], uint32(4+len(body)))
		binary.BigEndian.PutUint32(h[9:13], uint32(i))
		crc := crc32.Update(0, framed.CRCTable, h[9:13])
		crc = crc32.Update(crc, framed.CRCTable, body)
		binary.BigEndian.PutUint32(h[5:9], crc)
		// Drain the buffered writer first so bytes stay ordered, then
		// header + chunk leave in one writev.
		if err := c.W.Flush(); err != nil {
			return err
		}
		vec = append(vec[:0], h[:], body)
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

// recvBlock receives a block announced as total bytes in chunks DATA
// frames, acknowledging each chunk (the sender's credit). Both counts were
// read off the wire, so they are bounds-checked at full width before any
// buffer is sized from them. The assembled block escapes to the caller (it
// lands in a server's block table or a fetcher's hands), so it is a real
// allocation; only the per-chunk frame payloads recycle.
func recvBlock(c *framed.Conn, total uint64, chunks uint32) ([]byte, error) {
	if total > maxBlockBytes {
		return nil, tornf("transport block declares %d bytes (cap %d)", total, maxBlockBytes)
	}
	if uint64(chunks) != (total+chunkBytes-1)/chunkBytes {
		return nil, tornf("transport block declares %d chunks for %d bytes", chunks, total)
	}
	block := make([]byte, 0, total)
	var ack [4]byte
	for i := uint32(0); i < chunks; i++ {
		op, payload, err := framed.ReadFrame(c.R)
		if err != nil {
			return nil, err
		}
		if op != framed.OpData || len(payload) < 4 {
			framed.Release(payload)
			return nil, fmt.Errorf("transport: want DATA, got frame %q", op)
		}
		if idx := binary.BigEndian.Uint32(payload[:4]); idx != i {
			framed.Release(payload)
			return nil, fmt.Errorf("transport: DATA chunk %d out of order, want %d", idx, i)
		}
		if uint64(len(block))+uint64(len(payload)-4) > total {
			framed.Release(payload)
			return nil, tornf("transport block longer than declared")
		}
		block = append(block, payload[4:]...)
		framed.Release(payload)
		// Failpoint: a slow peer — the receiver stalls before granting the
		// sender's next credit, so the window turns the stall into real
		// sender-side backpressure.
		fault.Sleep(fault.TransportPeerSlow)
		binary.BigEndian.PutUint32(ack[:], i)
		if err := c.Send(framed.OpAck, ack[:]); err != nil {
			return nil, err
		}
	}
	if uint64(len(block)) != total {
		return nil, tornf("transport block %d bytes, declared %d", len(block), total)
	}
	return block, nil
}
