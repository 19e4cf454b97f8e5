package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
//	        | 'T' rel(u64 BE)            -- top mark: the relative address of
//	                                        a root object (§4.2 "Root Object
//	                                        Recognition"); rel 0 is null
//	        | 'R' len(u32 BE) decoded(u32 BE) crc(u32 BE) runs
//	                                     -- the same segment on the compact
//	                                        wire (compact.go): len bytes of
//	                                        same-klass runs that inflate to
//	                                        a chunk of decoded bytes
//	        | 'M' len(u32 BE) marks      -- every top mark queued behind a
//	                                        compact segment, as deltas
//	                                        (compact.go)
//	        | 'E'                        -- end of stream
//
// flags bit 0 records whether the object images carry a baddr header word:
// images are in the sender heap's layout, and a receiver whose heap's differs
// refuses the stream. A stream is on one wire throughout — 'S' and 'T', or
// 'R' and 'M' — and flags bit 1 says which; a reader takes each frame by its
// tag.
//
// Versioning: ver 2 is the only version a reader accepts. Every 'S' and 'R'
// frame carries a CRC-32C of its payload between the length words and the
// bytes, so a torn or bit-flipped transfer is rejected before any of it
// reaches a walker. Format changes bump the version byte — readers reject
// unknown versions (the checksum-free ver 1 included) loudly rather than
// misparsing — or, where the standard wire's bytes do not move, retire a tag:
// 'C', the per-record compact segment 'R' replaced, is an unknown frame. The
// golden wire-vector tests pin the current encoding byte for byte.
const (
	wireMagic   = "SKYW"
	wireVersion = 2

	frameSegment = 'S'
	frameTop     = 'T'
	frameRuns    = 'R'
	frameMarks   = 'M'
	frameEnd     = 'E'

	// topFrameLen is the wire size of a standard top mark: the tag and the
	// address.
	topFrameLen = 9

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

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// amd64/arm64), shared by senders and receivers.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func writeHeader(w io.Writer, layout klass.Layout, streamID uint16, compact bool) error {
	var h [8]byte
	copy(h[:4], wireMagic)
	h[4] = wireVersion
	if layout.Baddr {
		h[5] |= flagBaddr
	}
	if compact {
		h[5] |= flagCompact
	}
	binary.BigEndian.PutUint16(h[6:], streamID)
	_, err := w.Write(h[:])
	return err
}

// readHeader parses the stream header: the layout the sender's object images
// are in and the stream ID. (The compact flag is informational: each segment
// frame's tag says which encoding it is in.)
func readHeader(r io.Reader) (layout klass.Layout, streamID uint16, err error) {
	var h [8]byte
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

// noEOF maps a bare io.EOF to io.ErrUnexpectedEOF: inside a frame, running
// out of bytes is truncation, not a clean end of stream.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
