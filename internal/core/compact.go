package core

import (
	"encoding/binary"

	"skyway/internal/heap"
	"skyway/internal/klass"
)

// Compact transfer mode — the paper's stated future work (§5.2): "Since
// headers and paddings dominate these extra bytes, future work could focus
// on compressing headers and paddings during sending."
//
// In compact mode the logical transfer is unchanged — relative addresses,
// top marks and the receiver-side absolutization all operate on the fully
// laid-out object images — but the wire encoding of each object drops the
// header words that are reconstructible:
//
//	record := tid(uvarint) flags(u8) [hash(u32)] [arraylen(uvarint)] payload
//
// where payload is the raw post-header bytes (reference slots already
// relativized). The mark word travels only when the object actually has a
// cached hashcode (flag bit 0); the baddr word and padding words at fixed
// positions are never sent. The receiver re-inflates each record into a
// normal input-buffer chunk, so everything downstream of the segment
// decoder — translation table, card marking, pinning, field updates — is
// shared with the standard mode. Compact segments trade sender/receiver
// CPU for bytes; BenchmarkAblationCompact quantifies the trade.
const (
	compactFlagHashed = 1 << 0
	compactFlagArray  = 1 << 1
)

// appendCompact encodes the full object image img (in target layout, header
// already fixed up) into dst.
func appendCompact(dst []byte, img []byte, target klass.Layout, isArray bool) []byte {
	var tmp [binary.MaxVarintLen64]byte
	tid := binary.LittleEndian.Uint64(img[klass.OffKlass:])
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], tid)]...)

	mark := binary.LittleEndian.Uint64(img[klass.OffMark:])
	hash, hashed := heap.MarkHash(mark)
	var flags byte
	if hashed {
		flags |= compactFlagHashed
	}
	if isArray {
		flags |= compactFlagArray
	}
	dst = append(dst, flags)
	if hashed {
		var h [4]byte
		binary.LittleEndian.PutUint32(h[:], hash)
		dst = append(dst, h[:]...)
	}
	payloadOff := target.HeaderSize()
	if isArray {
		n := binary.LittleEndian.Uint64(img[target.OffArrayLen():])
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], n)]...)
		payloadOff = target.ArrayHeaderSize()
	}
	return append(dst, img[payloadOff:]...)
}

// inflate expands a compact segment (phys bytes) into img, the image of the
// staged chunk that will hold it, which spans the frame's declared decoded
// size — leaving objects in exactly the state a standard segment would: klass
// word holding the global type ID, baddr zero, references still relative.
func (rd *Reader) inflate(phys, img []byte) error {
	rt := rd.rt
	layout := rt.Heap.Layout()
	decoded := uint32(len(img))
	pos := 0
	a := uint32(0)

	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(phys[pos:])
		if n <= 0 {
			return 0, rd.decodeErrf(DecodeLength, uint64(pos), "compact segment truncated (uvarint)")
		}
		pos += n
		return v, nil
	}

	for pos < len(phys) {
		if a >= decoded {
			return rd.decodeErrf(DecodeLength, uint64(pos), "compact segment inflates past its declared size")
		}
		tid64, err := readUvarint()
		if err != nil {
			return err
		}
		k, err := rt.KlassByTID(int32(uint32(tid64)))
		if err != nil {
			return rd.decodeWrap(DecodeType, uint64(pos), err)
		}
		if pos >= len(phys) {
			return rd.decodeErrf(DecodeLength, uint64(pos), "compact segment truncated (flags)")
		}
		flags := phys[pos]
		pos++
		var hash uint32
		hashed := flags&compactFlagHashed != 0
		if hashed {
			if pos+4 > len(phys) {
				return rd.decodeErrf(DecodeLength, uint64(pos), "compact segment truncated (hash)")
			}
			hash = binary.LittleEndian.Uint32(phys[pos:])
			pos += 4
		}
		isArray := flags&compactFlagArray != 0
		if isArray != k.IsArray {
			return rd.decodeErrf(DecodeType, uint64(pos), "compact record array flag disagrees with class %s", k.Name)
		}

		arrayLen := uint64(0)
		if isArray {
			if arrayLen, err = readUvarint(); err != nil {
				return err
			}
		}
		room := uint64(decoded - a)
		size, _, ok := k.Extent(arrayLen, room)
		if !ok {
			return rd.decodeErrf(DecodeLength, uint64(pos), "compact record of %s, length %d, overruns the %d bytes left of its chunk", k.Name, arrayLen, room)
		}
		payloadOff := k.HeaderBytes
		payload := size - payloadOff
		if pos+int(payload) > len(phys) {
			return rd.decodeErrf(DecodeLength, uint64(pos), "compact segment truncated (payload)")
		}

		// Re-inflate the standard wire image in place.
		obj := img[a : a+size]
		var mark uint64
		if hashed {
			mark = heap.MarkWithHash(0, hash)
		}
		binary.LittleEndian.PutUint64(obj[klass.OffMark:], mark)
		binary.LittleEndian.PutUint64(obj[klass.OffKlass:], tid64)
		if layout.Baddr {
			binary.LittleEndian.PutUint64(obj[layout.OffBaddr():], 0)
		}
		if isArray {
			binary.LittleEndian.PutUint64(obj[layout.OffArrayLen():], arrayLen)
		}
		copy(obj[payloadOff:], phys[pos:pos+int(payload)])
		pos += int(payload)
		a += size
	}
	if a != decoded {
		return rd.decodeErrf(DecodeLength, uint64(pos), "compact segment inflated to %d bytes, expected %d", a, decoded)
	}
	return nil
}
