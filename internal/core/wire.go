package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"skyway/internal/heap"
	"skyway/internal/klass"
)

// Wire protocol. A stream opens with a fixed header and then carries frames:
//
//	header := "SKYW" ver(u8) flags(u8) streamID(u16 BE)
//	frame  := 'S' len(u32 BE) crc(u32 BE) bytes
//	                                     -- a flushed output-buffer segment;
//	                                        the receiver turns it into one
//	                                        input-buffer chunk, so objects
//	                                        never span chunks (§4.3)
//	        | 'R' len(u32 BE) decoded(u32 BE) crc(u32 BE) runs
//	                                     -- the same segment on the compact
//	                                        wire (compact.go): len bytes of
//	                                        same-klass runs that inflate to
//	                                        a chunk of decoded bytes
//	        | 'M' len(u32 BE) mark*      -- every top mark queued behind a
//	                                        segment: the relative addresses
//	                                        of root objects (§4.2 "Root
//	                                        Object Recognition"), as deltas
//	        | 'E'                        -- end of stream
//	mark   := 0                          -- a null root
//	        | zigzag((rel − prev) / 8) + 1 (uvarint)
//	                                     -- prev: the stream's previous
//	                                        non-null mark, relBias at open
//
// so a root cloned right behind the last one costs one byte while its graph
// stays under 512 bytes, and a back-reference root a short negative delta.
//
// flags bit 0 records whether the object images carry a baddr header word:
// images are in the sender heap's layout, and a receiver whose heap's differs
// refuses the stream. The two wires share every frame but the segment body:
// a stream's segments are all 'S' or all 'R', flags bit 1 says which, and a
// reader takes each frame by its tag.
//
// Versioning: ver 2 is the only version a reader accepts. Every 'S' and 'R'
// frame carries a CRC-32C of its payload between the length words and the
// bytes, so a torn or bit-flipped transfer is rejected before any of it
// reaches a walker. A change that only retires a tag keeps the version,
// because the old frame fails loudly as an unknown tag; any other change
// bumps it, and readers reject unknown versions (the checksum-free ver 1
// included) rather than misparse them. Retired so far: 'C', the per-record
// compact segment 'R' replaced, and 'T', the 9-byte top mark 'M' replaced.
// The golden wire-vector tests pin the current encoding byte for byte.
const (
	wireMagic   = "SKYW"
	wireVersion = 2

	frameSegment = 'S'
	frameRuns    = 'R'
	frameMarks   = 'M'
	frameEnd     = 'E'

	// marksHeaderLen is the 'M' frame's tag and length word; a writer queues
	// its marks behind room for it.
	marksHeaderLen = 5

	flagBaddr   = 1 << 0
	flagCompact = 1 << 1
)

// relBias offsets all relative addresses by one word so that relative
// address 0 can mean null (§4.2's r_addr bias).
const relBias = heap.RelBias

// maxSegmentBytes caps a declared segment length. Writers flush far below
// it (an oversized object gets a dedicated segment sized to the object); a
// declared length beyond it is corruption, not a big object, and is rejected
// before the receiver tries to stage it.
const maxSegmentBytes = 1 << 30

// streamHeaderLen is the size of the stream header.
const streamHeaderLen = 8

// putHeader writes the stream header into h.
func putHeader(h *[streamHeaderLen]byte, layout klass.Layout, streamID uint16, compact bool) {
	copy(h[:4], wireMagic)
	h[4] = wireVersion
	if layout.Baddr {
		h[5] |= flagBaddr
	}
	if compact {
		h[5] |= flagCompact
	}
	binary.BigEndian.PutUint16(h[6:], streamID)
}

// readHeader parses the stream header, read into h: the layout the sender's
// object images are in and the stream ID. (The compact flag is informational:
// each segment frame's tag says which encoding it is in.)
func readHeader(r io.Reader, h *[streamHeaderLen]byte) (layout klass.Layout, streamID uint16, err error) {
	if _, err = io.ReadFull(r, h[:]); err != nil {
		return layout, 0, &DecodeError{Kind: DecodeFrame, Detail: "reading stream header", Err: noEOF(err)}
	}
	if string(h[:4]) != wireMagic {
		return layout, 0, &DecodeError{Kind: DecodeFrame, Detail: fmt.Sprintf("bad stream magic %q", h[:4])}
	}
	if h[4] != wireVersion {
		return layout, 0, &DecodeError{Kind: DecodeFrame, Detail: fmt.Sprintf("unsupported stream version %d", h[4])}
	}
	layout.Baddr = h[5]&flagBaddr != 0
	return layout, binary.BigEndian.Uint16(h[6:]), nil
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// noEOF maps a bare io.EOF to io.ErrUnexpectedEOF: inside a frame, running
// out of bytes is truncation, not a clean end of stream.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
