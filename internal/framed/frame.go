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

// payloadPool recycles received frame payloads — without it every ReadFrame
// costs one fresh allocation of the declared length, one chunk-sized make
// per DATA frame under a shuffle. Senders never stream frames beyond
// ChunkBytes+4 (the read-side cap is slack for corruption detection), so
// that is the pooled capacity; the rare larger frame is allocated and left
// to the GC.
var payloadPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, ChunkBytes+4)
		return &b
	},
}

func getPayload(n uint32) []byte {
	b := *payloadPool.Get().(*[]byte)
	if uint64(cap(b)) < uint64(n) {
		payloadPool.Put(&b)
		return make([]byte, n)
	}
	return b[:n]
}

// Release hands a ReadFrame payload back to the pool. Safe on nil. A caller
// must be completely done with the bytes — the buffer backs the next frame
// read; anything worth keeping (an ERR detail, chunk bytes) is copied out
// before release.
func Release(b []byte) {
	if cap(b) == 0 || cap(b) > ChunkBytes+4 {
		return
	}
	b = b[:0]
	payloadPool.Put(&b)
}

// WriteFrame emits one frame. The caller flushes. A payload over MaxPayload
// is rejected before any bytes move: the uint32 length header would
// truncate silently and desync the stream, turning a local sizing bug into
// a peer-side "torn stream" misdiagnosis.
func WriteFrame(w io.Writer, op byte, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("framed: frame payload %d bytes over cap %d", len(payload), MaxPayload)
	}
	var h [headerBytes]byte
	h[0] = op
	binary.BigEndian.PutUint32(h[1:5], uint32(len(payload)))
	binary.BigEndian.PutUint32(h[5:9], crc32.Checksum(payload, CRCTable))
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads and validates one frame. The declared length is bounds-
// checked at full width before any allocation; a CRC mismatch surfaces as a
// *TornError so callers can tell a torn stream from a dead peer. The
// payload is pooled: Release it when done.
func ReadFrame(r io.Reader) (op byte, payload []byte, err error) {
	var h [headerBytes]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, nil, err
	}
	op = h[0]
	ln := binary.BigEndian.Uint32(h[1:5])
	if ln > MaxPayload {
		return 0, nil, &TornError{fmt.Sprintf("frame declares %d payload bytes (cap %d)", ln, MaxPayload)}
	}
	want := binary.BigEndian.Uint32(h[5:9])
	payload = getPayload(ln)
	if _, err := io.ReadFull(r, payload); err != nil {
		Release(payload)
		return 0, nil, noEOF(err)
	}
	// Failpoint: the stream is torn in flight — flip one deterministic
	// byte of the received payload before the integrity check, which must
	// reject it. Applied only to DATA frames so control frames keep the
	// conversation parseable (a torn control frame severs the connection,
	// which the dial/retry path already covers).
	if op == OpData && len(payload) > 4 && fault.Eval(fault.TransportStreamTorn) {
		payload[4+(len(payload)-4)/2] ^= 0xFF
	}
	if got := crc32.Checksum(payload, CRCTable); got != want {
		Release(payload)
		return 0, nil, &TornError{fmt.Sprintf("frame CRC %#x, want %#x (stream torn in flight)", got, want)}
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
