package framed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// FuzzFrameRead feeds arbitrary bytes to the layer's single frame parser.
// It must never panic, never hand back more than the declared (and capped)
// length, and classify every input the way the grammar says: a short input
// is a truncation, a length past the cap or a CRC mismatch is a *TornError,
// and anything else parses to exactly the bytes that were framed.
func FuzzFrameRead(f *testing.F) {
	// Seeds: testdata/fuzz/FuzzFrameRead.
	f.Fuzz(func(t *testing.T, data []byte) {
		op, payload, err := ReadFrame(bytes.NewReader(data))
		defer Release(payload)
		var te *TornError
		switch {
		case len(data) < headerBytes:
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("%d-byte input: err %v, want a truncation", len(data), err)
			}
		case binary.BigEndian.Uint32(data[1:5]) > MaxPayload:
			if !errors.As(err, &te) {
				t.Fatalf("length past the cap: err %v, want *TornError", err)
			}
		case uint64(len(data)-headerBytes) < uint64(binary.BigEndian.Uint32(data[1:5])):
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("truncated payload: err %v, want io.ErrUnexpectedEOF", err)
			}
		default:
			want := data[headerBytes : headerBytes+int(binary.BigEndian.Uint32(data[1:5]))]
			if crc32.Checksum(want, CRCTable) != binary.BigEndian.Uint32(data[5:9]) {
				if !errors.As(err, &te) {
					t.Fatalf("CRC mismatch: err %v, want *TornError", err)
				}
				return
			}
			if err != nil || op != data[0] || !bytes.Equal(payload, want) {
				t.Fatalf("valid frame: op %q, %d bytes, err %v; want op %q, %d bytes", op, len(payload), err, data[0], len(want))
			}
		}
		if err != nil && payload != nil {
			t.Fatalf("failed read returned a %d-byte payload", len(payload))
		}
	})
}
