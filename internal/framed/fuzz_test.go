package framed

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// crcTable is hash/crc32's Castagnoli table: the fuzz target's oracle,
// independent of the crc32c kernel the frame layer uses.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// FuzzFrameRead feeds arbitrary bytes to the layer's single frame parser,
// ReadFrameInto, through the buffered reader every connection reads with,
// landing a DATA frame's index word and body in separate buffers as a block
// receiver does. It must never panic, never land more than the declared (and
// capped) length, and classify every input the way the grammar says: a short
// input is a truncation, a length past the cap or a CRC mismatch is a
// *TornError, and anything else parses to exactly the bytes that were
// framed, with the CRC the header carried.
func FuzzFrameRead(f *testing.F) {
	// Seeds: testdata/fuzz/FuzzFrameRead.
	f.Fuzz(func(t *testing.T, data []byte) {
		var idx [4]byte
		var head, body []byte
		landed := false
		op, crc, err := ReadFrameInto(bufio.NewReader(bytes.NewReader(data)), func(op byte, n int) ([]byte, []byte, error) {
			landed = true
			if op == OpData && n >= len(idx) {
				head = idx[:]
			}
			body = make([]byte, n-len(head))
			return head, body, nil
		})
		payload := append(append([]byte(nil), head...), body...)
		var te *TornError
		switch {
		case len(data) < headerBytes:
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("%d-byte input: err %v, want a truncation", len(data), err)
			}
		case binary.BigEndian.Uint32(data[1:5]) > MaxPayload:
			if !errors.As(err, &te) || landed {
				t.Fatalf("length past the cap: err %v (destination asked for: %v), want *TornError", err, landed)
			}
		case uint64(len(data)-headerBytes) < uint64(binary.BigEndian.Uint32(data[1:5])):
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("truncated payload: err %v, want io.ErrUnexpectedEOF", err)
			}
		default:
			want := data[headerBytes : headerBytes+int(binary.BigEndian.Uint32(data[1:5]))]
			wantCRC := binary.BigEndian.Uint32(data[5:9])
			if crc32.Checksum(want, crcTable) != wantCRC {
				if !errors.As(err, &te) {
					t.Fatalf("CRC mismatch: err %v, want *TornError", err)
				}
				return
			}
			if err != nil || op != data[0] || crc != wantCRC || !bytes.Equal(payload, want) {
				t.Fatalf("valid frame: op %q, crc %#x, %d bytes, err %v; want op %q, crc %#x, %d bytes",
					op, crc, len(payload), err, data[0], wantCRC, len(want))
			}
		}
		if err != nil && (op != 0 || crc != 0) {
			t.Fatalf("failed read returned op %q, crc %#x", op, crc)
		}
	})
}
