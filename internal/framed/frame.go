// Package framed is the one framed-connection layer under both of Skyway's
// network conversations: workers asking the driver's type-registry daemon
// for IDs ("SKYR", internal/registry) and executors moving shuffle and
// broadcast blocks between heaps ("SKWT", internal/transport/tcp). It owns
// everything the two share — the versioned hello, the frame grammar with
// its integrity check, the common ops, the ERR-frame→typed-error mapping, a
// client (idle-connection cache, per-exchange deadline, retry with backoff
// over a fresh dial) and a server (accept loop, close race, hello check) —
// so a lifecycle bug is fixed once and one parser is fuzzed.
//
// Wire grammar: a connection opens with a fixed hello and then carries
// frames, one request/response conversation at a time:
//
//	hello := magic(4 bytes) ver(u8)
//	frame := op(u8) len(u32 BE) crc32c(u32 BE) payload
//
// The CRC covers the payload, Castagnoli polynomial — the same integrity
// discipline as Skyway wire v2, applied one layer down: a torn or
// bit-flipped transfer is rejected here, before any of it reaches a
// decoder, and surfaces as a *TornError.
//
// Ops every protocol on this layer shares (a protocol's own request ops use
// other letters):
//
//	'D' DATA  idx(u32) bytes — one chunk of a streamed block
//	'A' ACK   idx(u32)       — receiver's credit grant for chunk idx
//	'K' OK    success; payload is the protocol's response body, if any
//	'N' NIL   the thing asked for does not exist
//	'E' ERR   kind(u8) len(u32) detail — kind 1 marks a torn-stream
//	          failure, which the receiver rehydrates as a *TornError so the
//	          error keeps its structure across the process boundary; kind 0
//	          comes back as a *RemoteError
//
// framed imports only fault and obs. It cannot import core (whose
// DecodeError the block transport surfaces), because registry → framed →
// core → vm → registry would be a cycle; transport/tcp converts *TornError
// to *core.DecodeError at its one exchange boundary instead.
package framed

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"skyway/internal/fault"
)

// The ops common to every protocol on this layer.
const (
	OpData = 'D'
	OpAck  = 'A'
	OpOK   = 'K'
	OpNil  = 'N'
	OpErr  = 'E'
)

const (
	// MaxPayload caps one frame. A declared length beyond it is corruption
	// (or a hostile peer), not a big chunk — senders never produce DATA
	// frames above ChunkBytes plus the chunk index word.
	MaxPayload = 8 << 20
	// ChunkBytes is the DATA frame payload budget of a streamed block.
	ChunkBytes = 256 << 10

	headerBytes = 9
)

// CRCTable is the Castagnoli table, as in Skyway wire v2. Exported for
// senders that fold the CRC over a frame's pieces incrementally.
var CRCTable = crc32.MakeTable(crc32.Castagnoli)

// TornError is the structured error a damaged frame surfaces as: a length
// past the cap, a CRC mismatch, a block that contradicts its announcement.
// The peer's stored bytes are intact, so a fresh conversation can succeed.
type TornError struct{ Detail string }

func (e *TornError) Error() string { return "framed: torn stream: " + e.Detail }

// RemoteError is a peer's ERR frame of the generic kind: the request
// arrived whole and the peer refused it.
type RemoteError struct{ Detail string }

func (e *RemoteError) Error() string { return "framed: peer error: " + e.Detail }

// payloadPool recycles the payloads ReadFrame hands out — without it every
// control frame costs one fresh allocation of its declared length. Senders
// never stream frames beyond ChunkBytes+4 (the read-side cap is slack for
// corruption detection), so that is the pooled size; the rare larger frame
// is allocated and left to the GC. The pool holds array pointers, so a
// Release stores a pointer it already has instead of allocating a slice
// header.
var payloadPool = sync.Pool{
	New: func() any { return new([ChunkBytes + 4]byte) },
}

func getPayload(n int) []byte {
	if n > ChunkBytes+4 {
		return make([]byte, n)
	}
	return payloadPool.Get().(*[ChunkBytes + 4]byte)[:n]
}

// Release hands a ReadFrame payload back to the pool. Safe on nil. A caller
// must be completely done with the bytes — the buffer backs the next frame
// read; anything worth keeping (an ERR detail, chunk bytes) is copied out
// before release.
func Release(b []byte) {
	if cap(b) != ChunkBytes+4 {
		return
	}
	payloadPool.Put((*[ChunkBytes + 4]byte)(b[:ChunkBytes+4]))
}

// WriteFrame emits one frame. The caller flushes. A payload over MaxPayload
// is rejected before any bytes move: the uint32 length header would
// truncate silently and desync the stream, turning a local sizing bug into
// a peer-side "torn stream" misdiagnosis. On a *bufio.Writer the header is
// built in the writer's own free space, so a frame costs no allocation.
func WriteFrame(w io.Writer, op byte, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("framed: frame payload %d bytes over cap %d", len(payload), MaxPayload)
	}
	var h []byte
	if bw, ok := w.(*bufio.Writer); ok {
		h = bw.AvailableBuffer()
	}
	h = append(h, op)
	h = binary.BigEndian.AppendUint32(h, uint32(len(payload)))
	h = binary.BigEndian.AppendUint32(h, crc32.Checksum(payload, CRCTable))
	if _, err := w.Write(h); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrameInto reads and validates one frame, receiving its payload
// straight into memory the caller supplies — the layer's one frame parser.
// Once the header is read and its declared length n checked against
// MaxPayload at full width, dst is told the op and n and returns where the
// payload lands: its first len(head) bytes in head, the rest in body, the
// two together exactly n bytes. A DATA frame's receiver passes the chunk
// index word as head and the chunk's place in its block as body, so the
// bytes cross from the socket once. An error from dst is returned as it
// stands, before any payload byte is consumed.
//
// The CRC-32C covers exactly the bytes landed; a mismatch is a *TornError,
// so callers can tell a torn stream from a dead peer, and the verified CRC
// is returned for a receiver that keeps it with the bytes. On failure the
// destination's contents are undefined.
func ReadFrameInto(r io.Reader, dst func(op byte, n int) (head, body []byte, err error)) (op byte, crc uint32, err error) {
	h, err := readHeader(r)
	if err != nil {
		return 0, 0, err
	}
	op = h[0]
	ln := binary.BigEndian.Uint32(h[1:5])
	if ln > MaxPayload {
		return 0, 0, &TornError{fmt.Sprintf("frame declares %d payload bytes (cap %d)", ln, MaxPayload)}
	}
	want := binary.BigEndian.Uint32(h[5:9])
	head, body, err := dst(op, int(ln))
	if err != nil {
		return 0, 0, err
	}
	if len(head)+len(body) != int(ln) {
		return 0, 0, fmt.Errorf("framed: %d-byte frame given %d+%d bytes to land in", ln, len(head), len(body))
	}
	if _, err := io.ReadFull(r, head); err != nil {
		return 0, 0, noEOF(err)
	}
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, 0, noEOF(err)
	}
	// Failpoint: the stream is torn in flight — flip one deterministic
	// byte of the received payload before the integrity check, which must
	// reject it. Applied only to DATA frames so control frames keep the
	// conversation parseable (a torn control frame severs the connection,
	// which the dial/retry path already covers).
	if op == OpData && ln > 4 && fault.Eval(fault.TransportStreamTorn) {
		if at := 4 + int(ln-4)/2; at < len(head) {
			head[at] ^= 0xFF
		} else {
			body[at-len(head)] ^= 0xFF
		}
	}
	got := crc32.Update(crc32.Checksum(head, CRCTable), CRCTable, body)
	if got != want {
		return 0, 0, &TornError{fmt.Sprintf("frame CRC %#x, want %#x (stream torn in flight)", got, want)}
	}
	return op, got, nil
}

// readHeader reads a frame header. From a *bufio.Reader — every connection's
// — it is peeked in place, so reading a frame allocates nothing; any other
// reader fills an escaping buffer.
func readHeader(r io.Reader) (h [headerBytes]byte, err error) {
	if br, ok := r.(*bufio.Reader); ok {
		p, err := br.Peek(headerBytes)
		if err != nil {
			if len(p) > 0 {
				err = noEOF(err)
			}
			return h, err
		}
		copy(h[:], p)
		br.Discard(headerBytes)
		return h, nil
	}
	buf := make([]byte, headerBytes)
	if _, err := io.ReadFull(r, buf); err != nil {
		return h, err
	}
	copy(h[:], buf)
	return h, nil
}

// ReadFrame is ReadFrameInto for control frames: the payload lands in a
// pooled buffer, which the caller Releases when done.
func ReadFrame(r io.Reader) (op byte, payload []byte, err error) {
	op, _, err = ReadFrameInto(r, func(_ byte, n int) ([]byte, []byte, error) {
		payload = getPayload(n)
		return nil, payload, nil
	})
	if err != nil {
		Release(payload)
		return 0, nil, err
	}
	return op, payload, nil
}

// noEOF maps a bare io.EOF inside a frame to io.ErrUnexpectedEOF: running
// out of bytes mid-frame is truncation, not a clean close.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ERR frame kinds: how the receiving side should rehydrate the error.
const (
	errKindGeneric = 0
	errKindTorn    = 1
)

// MaxErrDetail caps the detail string an ERR frame carries. An error message
// that embeds megabytes of context would push the ERR frame past MaxPayload —
// the peer would then misdiagnose the oversized frame as a torn stream and
// lose the real error. Clamped details end in ErrTruncMark.
const (
	MaxErrDetail = 64 << 10
	ErrTruncMark = "... [truncated]"
)

// EncodeErr builds an ERR frame payload from a server-side failure,
// preserving the torn-stream shape across the wire.
func EncodeErr(err error) []byte {
	kind := byte(errKindGeneric)
	var te *TornError
	if errors.As(err, &te) {
		kind = errKindTorn
	}
	detail := err.Error()
	if len(detail) > MaxErrDetail {
		detail = detail[:MaxErrDetail-len(ErrTruncMark)] + ErrTruncMark
	}
	p := make([]byte, 5, 5+len(detail))
	p[0] = kind
	binary.BigEndian.PutUint32(p[1:5], uint32(len(detail)))
	return append(p, detail...)
}

// DecodeErr turns a received ERR payload back into an error with the
// structure the sender declared.
func DecodeErr(payload []byte) error {
	if len(payload) < 5 {
		return fmt.Errorf("framed: malformed ERR frame (%d bytes)", len(payload))
	}
	n := binary.BigEndian.Uint32(payload[1:5])
	if uint64(n) != uint64(len(payload)-5) {
		return fmt.Errorf("framed: malformed ERR frame (declares %d detail bytes of %d)", n, len(payload)-5)
	}
	detail := string(payload[5:])
	if payload[0] == errKindTorn {
		return &TornError{detail}
	}
	return &RemoteError{detail}
}
