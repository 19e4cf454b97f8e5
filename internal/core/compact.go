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
// laid-out object images — but the wire drops what the receiver can rebuild.
// A segment ('R' frame) is a sequence of same-klass runs:
//
//	run  := tid(uvarint) flags(u8) body{count}
//	flags: bit 0 hashed, bit 1 array, bits 2–7 count−1
//	body := [hash(u32 LE)] [arraylen(uvarint)] payload
//
// where payload is the raw post-header bytes of one object (reference slots
// already relativized) and every body of a run has the run's hashed and array
// bits. The clone order is the standard wire's: a record whose (tid, hashed,
// array) equal the open run's joins it by bumping the count in the flags byte
// already in the buffer, and anything else — a different klass, a hashed
// object among unhashed ones, the 65th record, a segment flush — closes it.
// The mark word travels only as a cached hashcode; the klass word once per
// run; the baddr word never. Top marks are the 'M' frames both wires share
// (wire.go).
//
// The receiver re-inflates each run into a normal input-buffer chunk, so
// everything downstream of the segment decoder — translation table, card
// marking, pinning, field updates — is shared with the standard mode.
const (
	compactFlagHashed = 1 << 0
	compactFlagArray  = 1 << 1
	// compactKindMask selects the flag bits every record of a run shares;
	// the bits above it count the run's records, less one.
	compactKindMask = compactFlagHashed | compactFlagArray
	compactRunShift = 2
	compactRunMax   = 1 << (8 - compactRunShift)

	// compactRecordMax bounds what one record adds to the buffer beyond its
	// payload: a run header (type ID and flags), a hashcode, an array length.
	compactRecordMax = binary.MaxVarintLen32 + 1 + 4 + binary.MaxVarintLen64
)

// appendRecord clones obj — an instance of k, size bytes as an image, claimed
// at the next relative address — onto the compact wire at the end of the
// output buffer, which has room for it: it joins or opens a run, and the
// payload goes from the heap straight to its place in the buffer, where the
// caller relativizes its reference slots (image offset off is at
// w.buf[payloadAt+off-k.HeaderBytes]).
func (w *Writer) appendRecord(obj heap.Addr, k *klass.Klass, size uint32) (payloadAt int) {
	h := w.rt.Heap
	hash, hashed := heap.MarkHash(h.Mark(obj))
	var kind byte
	if hashed {
		kind |= compactFlagHashed
	}
	if k.IsArray {
		kind |= compactFlagArray
	}
	buf := w.buf
	if w.runAt > 0 && w.runTID == k.TID && buf[w.runAt]&compactKindMask == kind && buf[w.runAt]>>compactRunShift < compactRunMax-1 {
		buf[w.runAt] += 1 << compactRunShift
	} else {
		buf = binary.AppendUvarint(buf, uint64(uint32(k.TID)))
		w.runAt, w.runTID = len(buf), k.TID
		buf = append(buf, kind)
	}
	if hashed {
		buf = binary.LittleEndian.AppendUint32(buf, hash)
	}
	if k.IsArray {
		buf = binary.AppendUvarint(buf, uint64(h.ArrayLen(obj)))
	}
	payloadAt = len(buf)
	payload := size - k.HeaderBytes
	buf = buf[:payloadAt+int(payload)]
	h.CopyOut(obj.Add(k.HeaderBytes), payload, buf[payloadAt:])
	w.buf = buf
	w.decodedInBuf += size
	return payloadAt
}

// inflate expands, forward and in place, the compact segment whose phys
// bytes fill received into the tail of img — the image of the staged chunk,
// which spans the frame's declared decoded size — leaving objects in exactly
// the state a standard segment would: klass word holding the global type ID,
// baddr zero, references still relative. A record's image only ever lands on
// bytes already read, since no record a writer produces takes more wire bytes
// than its header words; a stream whose records would overwrite unread bytes
// is refused.
func (rd *Reader) inflate(img []byte, phys uint32) error {
	rt := rd.rt
	layout := rt.Heap.Layout()
	pos, a := len(img)-int(phys), uint32(0)
	for pos < len(img) {
		tid64, n := binary.Uvarint(img[pos:])
		if n <= 0 {
			return rd.decodeErrf(DecodeLength, uint64(pos), "compact segment truncated (type ID)")
		}
		pos += n
		k, err := rt.KlassByTID(int32(uint32(tid64)))
		if err != nil {
			return rd.decodeWrap(DecodeType, uint64(pos), err)
		}
		if pos >= len(img) {
			return rd.decodeErrf(DecodeLength, uint64(pos), "compact segment truncated (flags)")
		}
		flags := img[pos]
		pos++
		hashed := flags&compactFlagHashed != 0
		if isArray := flags&compactFlagArray != 0; isArray != k.IsArray {
			return rd.decodeErrf(DecodeType, uint64(pos), "compact run's array flag disagrees with class %s", k.Name)
		}
		count := uint32(flags>>compactRunShift) + 1

		// An instance klass has one size, so the whole run is bounded at once:
		// each record may take its share of what is left of the chunk.
		var size uint32
		if !k.IsArray {
			room := uint64(len(img)) - uint64(a)
			var ok bool
			if size, _, ok = k.Extent(0, room/uint64(count)); !ok {
				return rd.decodeErrf(DecodeLength, uint64(pos), "compact run of %d %s overruns the %d bytes left of its chunk", count, k.Name, room)
			}
		}
		for ; count > 0; count-- {
			var mark uint64
			if hashed {
				if pos+4 > len(img) {
					return rd.decodeErrf(DecodeLength, uint64(pos), "compact segment truncated (hash)")
				}
				mark = heap.MarkWithHash(0, binary.LittleEndian.Uint32(img[pos:]))
				pos += 4
			}
			var arrayLen uint64
			if k.IsArray {
				if arrayLen, n = binary.Uvarint(img[pos:]); n <= 0 {
					return rd.decodeErrf(DecodeLength, uint64(pos), "compact segment truncated (array length)")
				}
				pos += n
				room := uint64(len(img)) - uint64(a)
				var ok bool
				if size, _, ok = k.Extent(arrayLen, room); !ok {
					return rd.decodeErrf(DecodeLength, uint64(pos), "compact record of %s, length %d, overruns the %d bytes left of its chunk", k.Name, arrayLen, room)
				}
			}
			payload := int(size - k.HeaderBytes)
			if pos+payload > len(img) {
				return rd.decodeErrf(DecodeLength, uint64(pos), "compact segment truncated (payload)")
			}
			// The image ends where the record's wire bytes end, or before.
			at := int(a + k.HeaderBytes)
			if at > pos {
				return rd.decodeErrf(DecodeLength, uint64(pos), "compact record of %s would inflate over %d unread bytes", k.Name, at-pos)
			}

			// Re-inflate the standard wire image: the payload first (a
			// memmove; a run's last record may already stand in place), then
			// the header words over bytes it has read.
			if at != pos {
				copy(img[at:at+payload], img[pos:pos+payload])
			}
			obj := img[a : a+size]
			binary.LittleEndian.PutUint64(obj[klass.OffMark:], mark)
			binary.LittleEndian.PutUint64(obj[klass.OffKlass:], tid64)
			if layout.Baddr {
				binary.LittleEndian.PutUint64(obj[layout.OffBaddr():], 0)
			}
			if k.IsArray {
				binary.LittleEndian.PutUint64(obj[layout.OffArrayLen():], arrayLen)
			}
			pos += payload
			a += size
		}
	}
	if int(a) != len(img) {
		return rd.decodeErrf(DecodeLength, uint64(pos), "compact segment inflated to %d bytes, expected %d", a, len(img))
	}
	return nil
}
