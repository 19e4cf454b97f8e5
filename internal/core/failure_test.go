package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"skyway/internal/fault"
	"skyway/internal/heap"
	"skyway/internal/vm"
)

// failingWriter fails its failAt-th Write (1-based), once, and counts them all.
type failingWriter struct {
	writes, failAt int
}

var errTransport = errors.New("transient transport failure")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes == w.failAt {
		return 0, errTransport
	}
	return len(p), nil
}

// A segment flush that fails leaves the writer with relative addresses
// claimed for bytes that never reached the wire. The next WriteObject used to
// panic on the buffer position; the stream has to stay failed instead, on
// every entry point, and Close must not put an end frame behind the hole.
func TestWriterStaysFailedAfterFlushError(t *testing.T) {
	snd, _, sky := testCluster(t)
	roots := allocCorpus(t, snd, 6, 20)
	dst := &failingWriter{failAt: 2} // 1: the stream header; 2: the first segment's frame header
	w := sky.NewWriter(dst, WithBufferSize(256))
	failed := -1
	for i, a := range roots {
		err := w.WriteObject(a)
		if err == nil {
			if failed >= 0 {
				t.Fatalf("root %d was accepted after root %d failed", i, failed)
			}
			continue
		}
		if !errors.Is(err, errTransport) {
			t.Fatalf("root %d: %v, want the transport's error", i, err)
		}
		if failed < 0 {
			failed = i
		}
	}
	if failed < 0 || failed == len(roots)-1 {
		t.Fatalf("first failure at root %d of %d; the test needs roots after it", failed, len(roots))
	}
	if err := w.Flush(); !errors.Is(err, errTransport) {
		t.Errorf("Flush after the failure = %v, want the transport's error", err)
	}
	writes := dst.writes
	if err := w.Close(); !errors.Is(err, errTransport) {
		t.Errorf("Close after the failure = %v, want the transport's error", err)
	}
	if dst.writes != writes {
		t.Errorf("the failed stream wrote %d more frame(s) at Close", dst.writes-writes)
	}
	if w.buf != nil {
		t.Error("Close of a failed stream kept its buffers")
	}
}

// wireFrames returns the offset of every segment frame of a stream.
func wireFrames(t *testing.T, wire []byte) (segments []int) {
	t.Helper()
	for off := 8; off < len(wire); {
		switch wire[off] {
		case frameSegment:
			segments = append(segments, off)
			off += 9 + int(binary.BigEndian.Uint32(wire[off+1:]))
		case frameRuns:
			segments = append(segments, off)
			off += 13 + int(binary.BigEndian.Uint32(wire[off+1:]))
		case frameMarks:
			off += marksHeaderLen + int(binary.BigEndian.Uint32(wire[off+1:]))
		case frameEnd:
			off++
		default:
			t.Fatalf("unknown frame tag %#x at %d", wire[off], off)
		}
	}
	return segments
}

// After a checksum error the reader has lost its place: the failed segment
// took no room in the relative address space, so every later segment would be
// staged one chunk too low and its top marks would name other objects. Reading
// on used to return such roots with a nil error.
func TestReaderStaysFailedAfterDecodeError(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	wire, want := recordStream(t, snd, sky, 600, backRefStreamOpts...)
	segs := wireFrames(t, wire)
	if len(segs) < 100 {
		t.Fatalf("stream has %d segments; the test needs many", len(segs))
	}
	wire = bytes.Clone(wire)
	wire[segs[1]+9] ^= 0x40 // the first payload byte of the second segment

	for _, opts := range [][]ReaderOption{nil, {WithArena()}} {
		rd := NewReader(rcv, bytes.NewReader(wire), opts...)
		var first error
		for i := 0; first == nil; i++ {
			a, err := rd.ReadObject()
			if err != nil {
				first = err
			} else if f := recordFold(rcv, a); f != want[i] {
				t.Fatalf("root %d folds to %d, want %d", i, f, want[i])
			}
		}
		if de, ok := AsDecodeError(first); !ok || de.Kind != DecodeChecksum {
			t.Fatalf("arena=%v: first error %v, want a checksum error", opts != nil, first)
		}
		for i := 0; i < 8; i++ {
			if a, err := rd.ReadObject(); err != first {
				t.Fatalf("arena=%v: ReadObject %d after the failure = %#x, %v; want the first error again", opts != nil, i, uint64(a), err)
			}
		}
		rd.Free()
	}
}

// No writer has emitted the checksum-free wire v1 since v2; a v1 header is an
// unsupported version like any other.
func TestWireV1Rejected(t *testing.T) {
	_, rcv, _ := testCluster(t)
	rd := NewReader(rcv, bytes.NewReader([]byte("SKYW\x01\x01\x00\x00E")))
	_, err := rd.ReadObject()
	de, ok := AsDecodeError(err)
	if !ok || de.Kind != DecodeFrame || de.Detail != "unsupported stream version 1" {
		t.Fatalf("v1 header: %v, want a frame error naming version 1", err)
	}
}

// receiverFootprint is what staged segments cost a receiver: buffer-space
// bytes, arena bytes and pinned ranges.
type receiverFootprint struct {
	buffer, arena uint64
	pins          int
}

func footprint(rt *vm.Runtime) receiverFootprint {
	f := receiverFootprint{buffer: rt.Heap.BufferUsed(), arena: rt.Arena.Bytes()}
	rt.GC.EachPinned(func(heap.Addr, uint32, bool) { f.pins++ })
	return f
}

// Staging is one sequence — header, stage, fill the chunk's tail, inflate it
// in place if compact, commit or abort — on all four paths (standard /
// compact wire × eager / arena receive), with one failure rule: a chunk whose
// bytes did not validate is never pinned, listed or committed to its region,
// and its range or mapping goes back. Each way the second segment of a stream
// can fail keeps its error kind and leaves the receiver holding the first
// segment and nothing else.
func TestStagingFaultLeavesNothingBehind(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	t.Cleanup(fault.Reset)

	// badSecond returns wire with a payload byte of its second segment
	// flipped, and the frame's CRC made to match again if fixCRC.
	badSecond := func(wire []byte, at int, fixCRC bool) []byte {
		wire = bytes.Clone(wire)
		seg := wireFrames(t, wire)[1]
		hdr := 9
		if wire[seg] == frameRuns {
			hdr = 13
		}
		payload := wire[seg+hdr : seg+hdr+int(binary.BigEndian.Uint32(wire[seg+1:]))]
		payload[at] ^= 0x7F
		if fixCRC {
			binary.BigEndian.PutUint32(wire[seg+hdr-4:], crc32.Checksum(payload, crcTable))
		}
		return wire
	}

	for _, compact := range []bool{false, true} {
		opts := []WriterOption{WithBufferSize(1 << 10)}
		if compact {
			opts = append(opts, WithCompactHeaders())
		}
		wire, _ := recordStream(t, snd, sky, 300, opts...)
		segs := wireFrames(t, wire)
		if len(segs) < 3 {
			t.Fatalf("compact=%v: stream has %d segments; the test needs a first, a failing second and more", compact, len(segs))
		}
		// The in-heap size of the first segment: what a receiver that failed
		// on the second still holds.
		first := uint64(binary.BigEndian.Uint32(wire[segs[0]+1:]))
		if compact {
			first = uint64(binary.BigEndian.Uint32(wire[segs[0]+5:]))
		}

		for _, arena := range []bool{false, true} {
			cases := []struct {
				name, fault string
				wire        []byte
				kind        DecodeKind
				skip        bool
			}{
				{name: "crc-mismatch", wire: badSecond(wire, 0, false), kind: DecodeChecksum},
				// The first byte of a compact payload is its first record's
				// type ID: the frame checks out, the record names no class.
				{name: "inflate-failure", wire: badSecond(wire, 0, true), kind: DecodeType, skip: !compact},
				{name: fault.CoreAllocBuffer, fault: fault.CoreAllocBuffer, wire: wire, kind: DecodeResource, skip: arena},
				{name: fault.ArenaMapFail, fault: fault.ArenaMapFail, wire: wire, kind: DecodeResource, skip: !arena},
			}
			for _, tc := range cases {
				if tc.skip {
					continue
				}
				name := map[bool]string{false: "standard", true: "compact"}[compact] + "/" +
					map[bool]string{false: "eager", true: "arena"}[arena] + "/" + tc.name
				t.Run(name, func(t *testing.T) {
					var ropts []ReaderOption
					if arena {
						ropts = append(ropts, WithArena())
					}
					before := footprint(rcv)
					if tc.fault != "" {
						// Fire on the second evaluation: the second segment.
						if err := fault.Configure(tc.fault + ":on*after=1*times=1"); err != nil {
							t.Fatal(err)
						}
						defer fault.Reset()
					}
					rd := NewReader(rcv, bytes.NewReader(tc.wire), ropts...)
					var err error
					for err == nil {
						_, err = rd.ReadObject()
					}
					if de, ok := AsDecodeError(err); !ok || de.Kind != tc.kind {
						t.Fatalf("ReadObject = %v, want a %s error", err, tc.kind)
					}
					if len(rd.chunks) != 1 {
						t.Fatalf("reader lists %d chunks after failing on its second segment, want 1", len(rd.chunks))
					}
					held := before
					if arena {
						held.arena += first
					} else {
						held.buffer += first
						held.pins++
					}
					if got := footprint(rcv); got != held {
						t.Errorf("receiver holds %+v after the failed attempt, want %+v (the first segment only)", got, held)
					}
					rd.Free()
					if got := footprint(rcv); got != before {
						t.Errorf("receiver holds %+v after Free, want %+v", got, before)
					}
				})
			}
		}
	}
}
