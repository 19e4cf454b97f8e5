package framed

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"skyway/internal/race"
)

// A payload over MaxPayload must be rejected before any bytes move:
// the uint32 length header would truncate and desync the stream, and the
// peer would misread everything after it.
func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, OpData, make([]byte, MaxPayload+1))
	if err == nil {
		t.Fatal("WriteFrame accepted a payload over MaxPayload")
	}
	if buf.Len() != 0 {
		t.Errorf("WriteFrame wrote %d bytes before rejecting the oversized payload", buf.Len())
	}
}

// An ERR frame's detail is clamped so a pathological error string cannot
// push the frame past MaxPayload — which the peer would misdiagnose as
// a torn stream, losing the real error entirely.
func TestEncodeErrClampsDetail(t *testing.T) {
	huge := fmt.Errorf("boom: %s", strings.Repeat("x", 2*MaxErrDetail))
	p := EncodeErr(huge)
	if len(p) > 5+MaxErrDetail {
		t.Fatalf("ERR payload %d bytes, want at most %d", len(p), 5+MaxErrDetail)
	}
	back := DecodeErr(p)
	if back == nil {
		t.Fatal("clamped ERR frame did not decode")
	}
	if !strings.HasSuffix(back.Error(), ErrTruncMark) {
		t.Errorf("clamped detail does not end in the truncation marker: ...%q", back.Error()[len(back.Error())-40:])
	}
	if !strings.Contains(back.Error(), "boom") {
		t.Error("clamped detail lost the head of the message")
	}

	// The torn-stream kind must survive the clamp too.
	torn := &TornError{strings.Repeat("y", 2*MaxErrDetail)}
	back = DecodeErr(EncodeErr(torn))
	var te *TornError
	if !errors.As(back, &te) {
		t.Errorf("clamped torn-stream error lost its structure: %T", back)
	}
}

// A short error must pass through EncodeErr/DecodeErr untouched.
func TestEncodeErrRoundTripUnclamped(t *testing.T) {
	back := DecodeErr(EncodeErr(fmt.Errorf("small failure")))
	if !strings.Contains(back.Error(), "small failure") {
		t.Errorf("round-tripped error lost its detail: %v", back)
	}
	if strings.Contains(back.Error(), ErrTruncMark) {
		t.Errorf("short detail was truncated: %v", back)
	}
}

// TestFrameRoundTripSteadyStateAllocs pins the transport's hot-path memory
// discipline: after warmup, a DATA-sized frame round trip draws its payload
// from the frame pool instead of allocating per frame.
func TestFrameRoundTripSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark skipped in -short mode")
	}
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	payload := bytes.Repeat([]byte{0xA5}, ChunkBytes)
	var buf bytes.Buffer
	buf.Grow(ChunkBytes + 64)
	// Warm the pool.
	if err := WriteFrame(&buf, OpData, payload); err != nil {
		t.Fatal(err)
	}
	if _, p, err := ReadFrame(&buf); err != nil {
		t.Fatal(err)
	} else {
		Release(p)
	}

	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := WriteFrame(&buf, OpData, payload); err != nil {
				panic(err)
			}
			op, p, err := ReadFrame(&buf)
			if err != nil {
				panic(err)
			}
			if op != OpData || len(p) != ChunkBytes {
				panic("frame round trip corrupted the payload shape")
			}
			Release(p)
		}
	})
	// Budget: well under one chunk — the payload buffer must recycle. The
	// slack absorbs pool misses when a GC clears the pool mid-run.
	const budget = ChunkBytes / 8
	if bpo := res.AllocedBytesPerOp(); bpo > budget {
		t.Errorf("frame round trip allocates %d bytes/op, budget %d (frame payloads must recycle)", bpo, budget)
	}
}
