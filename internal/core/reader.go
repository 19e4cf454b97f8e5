package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"time"

	"skyway/internal/arena"
	"skyway/internal/fault"
	"skyway/internal/gc"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/obs"
	"skyway/internal/verify"
	"skyway/internal/vm"
)

// Receiver-side transfer counters, exported on /metrics.
var (
	ctrObjectsRecv  = obs.NewCounter("skyway_transfer_objects_received_total", "Objects absolutized out of received Skyway chunks.")
	ctrBytesRecv    = obs.NewCounter("skyway_transfer_bytes_received_total", "Bytes received into pinned input-buffer chunks.")
	ctrChunks       = obs.NewCounter("skyway_transfer_chunks_total", "Input-buffer chunks allocated for incoming segments.")
	ctrRecvStreams  = obs.NewCounter("skyway_transfer_recv_streams_total", "Skyway receiver streams drained to end-of-stream.")
	ctrDecodeErrors = obs.NewCounter("skyway_transfer_decode_errors_total", "Streams rejected by receive-path validation (DecodeError).")
)

// Reader receives a Skyway stream into the runtime's heap: each incoming
// segment is copied verbatim into a chunk allocated in the heap's pinned
// buffer space, and when a top mark arrives the new chunks are absolutized
// in one linear scan — type IDs become klass words, relative addresses
// become heap addresses — after which the objects are immediately usable
// (§4.3). Chunks are registered with the collector as pinned, immortal
// ranges until Free is called.
//
// The reader trusts nothing about the bytes: segments are checksummed (wire
// v2) and every structural property — frame shape, declared lengths, type
// IDs, relative pointers — is validated before any of the chunk is
// absolutized into live heap state. A malformed stream surfaces as a
// *DecodeError and leaves the heap untouched beyond pinned (and freeable)
// raw chunks; it can never panic the receiver or plant a dangling pointer.
type Reader struct {
	rt *vm.Runtime
	r  *bufio.Reader

	headerRead  bool
	streamID    uint16
	compact     bool
	checksummed bool // wire v2: per-segment CRC-32C

	// tops is the window of top marks peeked but not yet returned, all
	// topsPeeked bytes of which are still to be discarded (see peekTops).
	tops       []byte
	topsPeeked int

	chunks []chunk // ascending startRel, back to back from relBias
	parsed int     // chunks[:parsed] are absolutized (or arena-validated)

	// runs is the relative→absolute table: the chunks, with every stretch
	// that lies in the heap in stream order merged into one entry. Buffer
	// space hands out neighbours until its free list interferes, and arena
	// chunks have no base at all, so it is usually a single run; run0 backs
	// it until a second one appears.
	runs []run
	run0 [1]run

	pins []*gc.PinnedRange

	// arena selects the lazy-absolutization decode path (arena_reader.go):
	// segments stage into region instead of pinned buffer space, roots come
	// back as tagged arena addresses.
	arena  bool
	region *arena.Region

	// klasses is a direct-mapped TID→klass cache in front of the runtime's
	// map: shuffle streams interleave a handful of record classes. Every
	// entry has passed checkKlassKinds.
	klasses [8]tidEntry

	// rootHint and refHint name the run the last top mark and the last
	// reference slot resolved into. Both kinds of address move through the
	// table in long same-run stretches, each at its own place, so translate
	// tries the hint before it searches.
	rootHint, refHint int

	// verify enables the SKYWAY_VERIFY debug assertions on top-mark
	// framing and chunk relativization.
	verify bool

	// Objects and Bytes report per-reader transfer volume.
	Objects uint64
	Bytes   uint64

	// openedAt anchors the stream's receive span; zero when tracing was
	// disabled at open time. eofSeen keeps the span single-shot when
	// ReadObject is called again after end-of-stream.
	openedAt time.Time
	eofSeen  bool
}

type tidEntry struct {
	tid int32
	k   *klass.Klass
}

// run is one entry of the relative→absolute table.
type run struct {
	startRel uint64
	size     uint64
	base     heap.Addr // Null in arena mode
}

type chunk struct {
	startRel uint64
	base     heap.Addr
	size     uint32
	// seg is the arena-mode segment image (base stays Null); eager chunks
	// leave it nil.
	seg []byte
	// done tracks absolutization progress within the chunk: a segment can
	// end mid-graph (the sender flushed because its output buffer filled,
	// §4.2 streaming), leaving objects whose references point beyond the
	// received data; those are deferred until more segments arrive — the
	// paper's "block the computation on buffers into which data is being
	// streamed until the absolutization pass is done" (§4.3).
	done uint32
}

// NewReader opens a Skyway object input stream over r for runtime rt.
func NewReader(rt *vm.Runtime, r io.Reader, opts ...ReaderOption) *Reader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 16<<10)
	}
	rd := &Reader{rt: rt, r: br, verify: verify.Enabled()}
	rd.runs = rd.run0[:0]
	for _, opt := range opts {
		opt(rd)
	}
	if obs.Enabled() {
		rd.openedAt = time.Now()
	}
	return rd
}

// ReadObject returns the next transferred root object. It consumes frames
// until a top mark arrives, absolutizing newly received chunks. io.EOF is
// returned at end of stream; any malformed input surfaces as a *DecodeError.
func (rd *Reader) ReadObject() (heap.Addr, error) {
	a, err := rd.readObject()
	if err != nil && err != io.EOF {
		if _, ok := AsDecodeError(err); ok {
			ctrDecodeErrors.Inc()
		}
	}
	return a, err
}

func (rd *Reader) readObject() (heap.Addr, error) {
	if !rd.headerRead {
		target, sid, compact, checksummed, err := readHeader(rd.r)
		if err != nil {
			return heap.Null, err
		}
		if target != rd.rt.Heap.Layout() {
			return heap.Null, &DecodeError{Kind: DecodeFrame, Stream: sid,
				Detail: fmt.Sprintf("stream was adjusted for layout %+v but receiver heap uses %+v", target, rd.rt.Heap.Layout())}
		}
		rd.streamID = sid
		rd.compact = compact
		rd.checksummed = checksummed
		rd.headerRead = true
	}
	for {
		if len(rd.tops) > 0 {
			rel := binary.BigEndian.Uint64(rd.tops[1:topFrameLen])
			if rd.tops = rd.tops[topFrameLen:]; len(rd.tops) == 0 {
				rd.r.Discard(rd.topsPeeked) // cannot fail: these bytes were peeked
			}
			return rd.root(rel)
		}
		tag, err := rd.r.ReadByte()
		if err != nil {
			return heap.Null, rd.decodeWrap(DecodeFrame, 0, noEOF(err))
		}
		switch tag {
		case frameSegment:
			if err := rd.readSegment(); err != nil {
				return heap.Null, err
			}
		case frameCompact:
			if err := rd.readCompactSegment(); err != nil {
				return heap.Null, err
			}
		case frameTop:
			rd.r.UnreadByte() // cannot fail: the tag was just read
			if err := rd.peekTops(); err != nil {
				return heap.Null, err
			}
		case frameEnd:
			// §4.3 framing invariant at its sound enforcement point: a
			// forward reference may defer absolutization mid-stream (data
			// still in flight), but a stream that ENDS with deferred chunks
			// holds references that will never resolve — corruption, not
			// streaming.
			if rd.parsed < len(rd.chunks) {
				return heap.Null, rd.decodeErrf(DecodePointer, rd.received(),
					"stream ended with %d chunk(s) not absolutized (unresolved forward reference)",
					len(rd.chunks)-rd.parsed)
			}
			if !rd.eofSeen {
				rd.eofSeen = true
				ctrRecvStreams.Inc()
				if !rd.openedAt.IsZero() {
					rd.rt.Trace.Emit("transfer", "skyway.recv", rd.openedAt, time.Since(rd.openedAt),
						obs.I64("objects", int64(rd.Objects)),
						obs.I64("bytes", int64(rd.Bytes)),
						obs.I64("chunks", int64(len(rd.chunks))),
						obs.I64("stream_id", int64(rd.streamID)))
				}
			}
			return heap.Null, io.EOF
		default:
			return heap.Null, rd.decodeErrf(DecodeFrame, 0, "unknown frame tag %#x", tag)
		}
	}
}

// peekTops opens the window of top marks at the head of the stream: the one
// whose tag was just seen, and every whole one already buffered behind it. A
// sender queues a segment's top marks back to back, so taking them off one
// Peek costs a root a slice operation instead of three bufio calls and an
// escaping read buffer. The window is bufio's own buffer; it stays valid
// because the Reader reads nothing else until the last mark in it has been
// taken, and only then discards them all.
func (rd *Reader) peekTops() error {
	if _, err := rd.r.Peek(topFrameLen); err != nil {
		return rd.decodeWrap(DecodeFrame, 0, noEOF(err))
	}
	b, _ := rd.r.Peek(rd.r.Buffered())
	n := topFrameLen
	for n+topFrameLen <= len(b) && b[n] == frameTop {
		n += topFrameLen
	}
	rd.tops, rd.topsPeeked = b[:n], n
	return nil
}

// root resolves a top mark: it walks whatever arrived since the last one and
// returns the root's address.
func (rd *Reader) root(rel uint64) (heap.Addr, error) {
	if rd.arena {
		if err := rd.checkRegion(); err != nil {
			return heap.Null, err
		}
	}
	if rd.parsed < len(rd.chunks) {
		if err := rd.walk(); err != nil {
			return heap.Null, err
		}
	}
	// Chunks may legitimately remain unabsolutized here: with
	// shared-chain concurrent senders a root can reference claimed
	// objects whose bytes arrive in a later segment, the §4.3
	// "block the computation on buffers into which data is being
	// streamed" case. The frameEnd check catches references that
	// never resolve.
	if rel%klass.WordSize != 0 {
		return heap.Null, rd.decodeErrf(DecodePointer, rel, "top mark holds unaligned relative address")
	}
	if rd.verify {
		if err := rd.verifyTop(rel); err != nil {
			return heap.Null, err
		}
	}
	if rel == 0 {
		return heap.Null, nil
	}
	return rd.translate(rel, &rd.rootHint)
}

// ReadAll reads every remaining root in the stream.
func (rd *Reader) ReadAll() ([]heap.Addr, error) {
	var out []heap.Addr
	for {
		a, err := rd.ReadObject()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, a)
	}
}

// stageChunk allocates a new pinned input-buffer chunk of `size` bytes to
// hold the segment being received.
func (rd *Reader) stageChunk(size uint32) (heap.Addr, error) {
	var base heap.Addr
	// Failpoint: a receiver under memory pressure loses the allocation race
	// at exactly this safepoint.
	if !fault.Eval(fault.CoreAllocBuffer) {
		base = rd.rt.Heap.AllocBuffer(size)
	}
	if base == heap.Null {
		return heap.Null, rd.decodeErrf(DecodeResource, uint64(size),
			"input-buffer space exhausted allocating %d-byte chunk (free unused buffers or enlarge Config.BufferSize)", size)
	}
	return base, nil
}

// checkSegment verifies the segment payload against its wire CRC (v2
// streams) after applying any injected wire damage. Runs before a single
// byte reaches the heap.
func (rd *Reader) checkSegment(payload []byte, wireCRC uint32) error {
	// Failpoints: damage in flight — a flipped bit, a torn (zero-filled)
	// tail. Injected before the checksum gate, which must catch both.
	if fault.Eval(fault.CoreChunkBitflip) && len(payload) > 0 {
		payload[len(payload)/2] ^= 0x10
	}
	if fault.Eval(fault.CoreChunkTruncate) && len(payload) >= 2 {
		for i := len(payload) / 2; i < len(payload); i++ {
			payload[i] = 0
		}
	}
	if !rd.checksummed {
		return nil
	}
	if got := crc32.Checksum(payload, crcTable); got != wireCRC {
		return rd.decodeErrf(DecodeChecksum, 0, "segment CRC %#x does not match wire CRC %#x over %d bytes", got, wireCRC, len(payload))
	}
	return nil
}

// corruptStaged applies the post-checksum type-ID failpoint: corruption
// that a valid CRC cannot rule out (a buggy sender, receiver-side memory
// damage). It stomps the first object's klass word, exercising the
// absolutization-time class validation. The matching pointer failpoint
// lives in absolutize, where a real reference slot is known.
func corruptStaged(tmp []byte) {
	if fault.Eval(fault.CoreChunkBadTID) && len(tmp) >= int(klass.OffKlass)+8 {
		binary.LittleEndian.PutUint64(tmp[klass.OffKlass:], 0x7FFFFFF0)
	}
}

// fillStaged receives one segment payload into dst — which may alias the
// pinned chunk directly — and validates it in place: injected wire damage,
// then the CRC gate, then the post-checksum corruption point.
func (rd *Reader) fillStaged(dst []byte, wireCRC uint32) error {
	if _, err := io.ReadFull(rd.r, dst); err != nil {
		return rd.decodeWrap(DecodeFrame, 0, noEOF(err))
	}
	if err := rd.checkSegment(dst, wireCRC); err != nil {
		return err
	}
	corruptStaged(dst)
	return nil
}

// readSegment allocates an input-buffer chunk and receives the segment into
// it. The chunk is pinned immediately (unparsed) so the collector treats
// the raw bytes as opaque.
//
// The wire bytes are read directly into the pinned chunk through
// heap.ByteView and checksummed in place — the decode path's only copy is
// the socket read itself. A segment that fails mid-receive (short read, CRC
// mismatch) frees its chunk before surfacing the error: the chunk is not yet
// pinned or listed, so the range would otherwise leak from buffer space.
func (rd *Reader) readSegment() error {
	var lenb [4]byte
	if _, err := io.ReadFull(rd.r, lenb[:]); err != nil {
		return rd.decodeWrap(DecodeFrame, 0, noEOF(err))
	}
	n := binary.BigEndian.Uint32(lenb[:])
	if n == 0 || n%klass.WordSize != 0 || n > maxSegmentBytes {
		return rd.decodeErrf(DecodeLength, uint64(n), "bad segment length %d", n)
	}
	var wireCRC uint32
	if rd.checksummed {
		var crcb [4]byte
		if _, err := io.ReadFull(rd.r, crcb[:]); err != nil {
			return rd.decodeWrap(DecodeFrame, 0, noEOF(err))
		}
		wireCRC = binary.BigEndian.Uint32(crcb[:])
	}
	if rd.arena {
		return rd.readSegmentArena(n, wireCRC)
	}
	base, err := rd.stageChunk(n)
	if err != nil {
		return err
	}
	h := rd.rt.Heap
	if err := rd.fillStaged(h.ByteView(base, n), wireCRC); err != nil {
		h.FreeBufferRange(base, n)
		return err
	}

	rd.addChunk(base, n, nil)
	rd.pins = append(rd.pins, rd.rt.GC.Pin(base, n))
	return nil
}

// readCompactSegment receives a compact segment (§5.2 future-work mode):
// the wire carries compressed records; the chunk is allocated at the
// declared inflated size and each record is re-expanded into the standard
// in-heap image before the shared absolutization pass runs over it.
func (rd *Reader) readCompactSegment() error {
	var hdr [8]byte
	if _, err := io.ReadFull(rd.r, hdr[:]); err != nil {
		return rd.decodeWrap(DecodeFrame, 0, noEOF(err))
	}
	phys := binary.BigEndian.Uint32(hdr[:4])
	decoded := binary.BigEndian.Uint32(hdr[4:])
	if decoded == 0 || decoded%klass.WordSize != 0 || phys == 0 ||
		decoded > maxSegmentBytes || phys > maxSegmentBytes {
		return rd.decodeErrf(DecodeLength, uint64(decoded), "bad compact segment lengths %d/%d", phys, decoded)
	}
	var wireCRC uint32
	if rd.checksummed {
		var crcb [4]byte
		if _, err := io.ReadFull(rd.r, crcb[:]); err != nil {
			return rd.decodeWrap(DecodeFrame, 0, noEOF(err))
		}
		wireCRC = binary.BigEndian.Uint32(crcb[:])
	}
	// The compact path cannot avoid a staging buffer — records are
	// re-inflated, not copied verbatim — but the buffer is recycled across
	// segments instead of allocated per segment.
	buf := getBuf(int(phys))[:phys]
	defer putBuf(buf)
	if _, err := io.ReadFull(rd.r, buf); err != nil {
		return rd.decodeWrap(DecodeFrame, 0, noEOF(err))
	}
	if err := rd.checkSegment(buf, wireCRC); err != nil {
		return err
	}
	if rd.arena {
		return rd.readCompactSegmentArena(buf, decoded)
	}
	base, err := rd.stageChunk(decoded)
	if err != nil {
		return err
	}
	// Pin before decoding so a decode error cannot leave an unaccounted
	// raw range in buffer space.
	pin := rd.rt.GC.Pin(base, decoded)
	if err = rd.decodeCompactSegment(buf, rd.rt.Heap.ByteView(base, decoded), decoded); err != nil {
		rd.rt.GC.Unpin(pin)
		return err
	}
	rd.addChunk(base, decoded, nil)
	rd.pins = append(rd.pins, pin)
	return nil
}

// checkKlassKinds is the reader-side counterpart of heap.StoreBytes'
// unsized-kind panic: a klass whose field or element kind has no defined size (a
// malformed or out-of-sync class definition) would make every sized
// accessor silently drop bytes, so a stream resolving to one is rejected as
// a structured decode error before any of its objects are absolutized.
func checkKlassKinds(k *klass.Klass) error {
	if k.IsArray {
		if k.ElemSize() == 0 {
			return fmt.Errorf("array class %s has element kind %v of undefined size", k.Name, k.Elem)
		}
		return nil
	}
	for i := range k.Fields {
		if k.Fields[i].Kind.Size() == 0 {
			return fmt.Errorf("class %s field %s has kind %v of undefined size", k.Name, k.Fields[i].Name, k.Fields[i].Kind)
		}
	}
	return nil
}

// addChunk lists a received chunk — a pinned range at base, or the arena
// segment seg — at the end of the received relative address space.
func (rd *Reader) addChunk(base heap.Addr, size uint32, seg []byte) {
	startRel := rd.received()
	rd.chunks = append(rd.chunks, chunk{startRel: startRel, base: base, size: size, seg: seg})
	if last := len(rd.runs) - 1; last >= 0 && (rd.arena || rd.runs[last].base+heap.Addr(rd.runs[last].size) == base) {
		rd.runs[last].size += uint64(size)
	} else {
		rd.runs = append(rd.runs, run{startRel: startRel, size: uint64(size), base: base})
	}
	rd.Bytes += uint64(size)
	ctrChunks.Inc()
	ctrBytesRecv.Add(int64(size))
}

// runOf returns the run that holds the (biased) relative address rel, or nil
// when nothing received does. *hint is the run the caller's previous address
// resolved into; only a miss pays for the binary search.
func (rd *Reader) runOf(rel uint64, hint *int) *run {
	if i := *hint; i < len(rd.runs) {
		// Unsigned: an address below the run wraps far past its size.
		if r := &rd.runs[i]; rel-r.startRel < r.size {
			return r
		}
	}
	i := sort.Search(len(rd.runs), func(i int) bool { return rd.runs[i].startRel > rel }) - 1
	if i < 0 || rel-rd.runs[i].startRel >= rd.runs[i].size {
		return nil
	}
	*hint = i
	return &rd.runs[i]
}

// translate maps a (biased) relative address to its heap address using the
// run table — the paper's two-step translation for buffers that span
// multiple, possibly underfilled chunks.
func (rd *Reader) translate(rel uint64, hint *int) (heap.Addr, error) {
	r := rd.runOf(rel, hint)
	if r == nil {
		return heap.Null, rd.decodeErrf(DecodePointer, rel, "relative address outside received chunks")
	}
	if rd.arena {
		// Arena chunks have no heap address: the handle IS the (tagged)
		// relative address, resolved per access by the vm layer.
		return heap.ComposeArenaAddr(rd.region.ID(), rel), nil
	}
	return r.base + heap.Addr(rel-r.startRel), nil
}

// received returns the end of the received relative address space.
func (rd *Reader) received() uint64 {
	if len(rd.chunks) == 0 {
		return relBias
	}
	last := rd.chunks[len(rd.chunks)-1]
	return last.startRel + uint64(last.size)
}

// walk performs the linear scan over the not-yet-parsed chunk suffix, one
// chunk image at a time. It is the only scan: an eager reader walks each
// pinned chunk through its byte view and commits every object as it passes
// — local klass word, absolute references, and once the chunk is done, a
// parsed pin and dirty cards so the collector sees pointers out of the
// buffer (§4.3) — while an arena reader walks the region segment and commits
// nothing. The scan stops at the first object with a reference into data not
// yet received (an in-flight graph) and resumes from there on the next call.
func (rd *Reader) walk() error {
	h := rd.rt.Heap
	limit := rd.received()
	objects0 := rd.Objects
	var err error
	for rd.parsed < len(rd.chunks) {
		c := &rd.chunks[rd.parsed]
		var done bool
		done, err = rd.walkChunk(c, rd.image(c), limit)
		if err != nil || !done {
			break
		}
		if !rd.arena {
			// The chunk is now walkable; tell the collector and dirty its
			// cards so the next scavenge scans it for young pointers.
			rd.pins[rd.parsed].Parsed = true
			h.DirtyRange(c.base, c.size)
		}
		rd.parsed++
	}
	ctrObjectsRecv.Add(int64(rd.Objects - objects0))
	return err
}

// image returns the byte image of chunk c for the walker: an arena chunk's
// segment, an eager chunk's view of buffer space. A chunk can overstate its
// extent only when its table entry was fabricated (the huge-length
// regression tests do), and then the image stops at the end of the slab:
// whoever scans it bounds every object by the image as well.
func (rd *Reader) image(c *chunk) []byte {
	if rd.arena {
		return c.seg
	}
	h, size := rd.rt.Heap, c.size
	if room := h.TotalBytes() - uint64(c.base); uint64(size) > room {
		size = uint32(room)
	}
	return h.ByteView(c.base, size)
}

// resolveKlass resolves a global type ID to a local klass (loading the class
// on demand) whose field kinds all have a size, and caches it.
func (rd *Reader) resolveKlass(tid int32) (*klass.Klass, error) {
	k, err := rd.rt.KlassByTID(tid)
	if err == nil {
		err = checkKlassKinds(k)
	}
	if err != nil {
		return nil, err
	}
	if tid >= 0 {
		rd.klasses[uint32(tid)%uint32(len(rd.klasses))] = tidEntry{tid, k}
	}
	return k, nil
}

// walkChunk scans img, the image of chunk c, from c.done: for each object it
// resolves the global type ID, bounds the object by its chunk, and checks
// every reference slot, and reports whether it reached the end of the chunk
// (false, nil: an object references data not yet received, all of which lies
// below limit).
//
// Validation order is the §4.3 hardening contract: an object's class, its
// size against its chunk, and every one of its reference slots are checked
// before the first mutation of the object — an eager reader's commit is per
// object, never partial. Registered field updates apply on both paths, once,
// at receive time.
func (rd *Reader) walkChunk(c *chunk, img []byte, limit uint64) (bool, error) {
	rt := rd.rt
	offLen := rt.Heap.Layout().OffArrayLen()
	off := c.done
	for off < c.size {
		relOff := c.startRel + uint64(off)
		if uint64(off)+klass.OffKlass+klass.WordSize > uint64(len(img)) {
			return false, rd.decodeErrf(DecodeLength, relOff, "%d-byte tail of the chunk is too short for an object header", c.size-off)
		}
		tid := int32(uint32(binary.LittleEndian.Uint64(img[off+klass.OffKlass:])))
		var k *klass.Klass
		if tid >= 0 { // a negative ID resolves to nothing, and must not index
			if e := &rd.klasses[uint32(tid)%uint32(len(rd.klasses))]; e.tid == tid {
				k = e.k
			}
		}
		if k == nil {
			var err error
			if k, err = rd.resolveKlass(tid); err != nil {
				return false, rd.decodeWrap(DecodeType, relOff, err)
			}
		}
		// The rest of the image is the room. A length word is read only when
		// the array header fits in it; otherwise the zero fails on the header.
		room := uint64(len(img)) - uint64(off)
		var n uint64
		if k.IsArray && uint64(k.Size) <= room {
			n = binary.LittleEndian.Uint64(img[off+offLen:])
		}
		size, nrefs, ok := k.Extent(n, room)
		if !ok {
			return false, rd.decodeErrf(DecodeLength, relOff, "%s of length %d overruns the %d bytes left of its chunk", k.Name, n, room)
		}
		obj := img[off : off+size]

		// Failpoint: stomp a real reference slot with an unaligned,
		// out-of-space relative pointer — post-checksum corruption the
		// CRC cannot see, which the bounds check below must reject.
		if nrefs > 0 && fault.Eval(fault.CoreChunkBadPtr) {
			binary.LittleEndian.PutUint64(obj[k.RefSlot(0):], 0xDEADBEEF)
		}

		// First pass: verify every reference is well formed and
		// resolvable. A malformed pointer (below the bias, unaligned,
		// or outside the 40-bit stream space) is corruption and fails
		// now; a well-formed forward reference beyond the received data
		// defers the rest of the scan (nothing mutated yet).
		for i := 0; i < nrefs; i++ {
			rel := binary.LittleEndian.Uint64(obj[k.RefSlot(i):])
			if rel == 0 {
				continue
			}
			if rel < relBias || rel%klass.WordSize != 0 || rel > heap.BaddrRelMask {
				return false, rd.decodeErrf(DecodePointer, relOff,
					"reference slot %d of %s holds malformed relative address %#x", i, k.Name, rel)
			}
			if rel >= limit {
				c.done = off
				return false, nil
			}
		}

		if !rd.arena {
			// Commit: install the klass word, absolutize references.
			binary.LittleEndian.PutUint64(obj[klass.OffKlass:], uint64(k.LID))
			for i := 0; i < nrefs; i++ {
				slot := obj[k.RefSlot(i):]
				rel := binary.LittleEndian.Uint64(slot)
				if rel == 0 {
					continue
				}
				abs, err := rd.translate(rel, &rd.refHint)
				if err != nil {
					return false, err
				}
				binary.LittleEndian.PutUint64(slot, uint64(abs))
			}
		}
		if !k.IsArray {
			if ups := rt.UpdatesFor(k); len(ups) > 0 {
				rd.applyUpdates(ups, c, off, obj)
			}
		}
		rd.Objects++
		off += size
		c.done = off
	}
	return true, nil
}

// applyUpdates runs the registered §3.3 field updates on the object whose
// image obj sits at off in chunk c. The update function sees the object the
// way the application will — by heap address, or through a tagged handle.
func (rd *Reader) applyUpdates(ups []vm.FieldUpdate, c *chunk, off uint32, obj []byte) {
	for _, u := range ups {
		a := c.base + heap.Addr(off)
		if rd.arena {
			a = heap.ComposeArenaAddr(rd.region.ID(), c.startRel+uint64(off))
		}
		heap.StoreBytes(obj, u.Field.Offset, u.Field.Kind, u.Fn(rd.rt, a))
	}
}

// verifyTop checks the §4.3 framing invariant under SKYWAY_VERIFY: a top
// mark reaches the wire only after every byte of the graph it names, so the
// walker must already be past the root — it may be waiting, further on, for
// a later root's in-flight graph — and the root must resolve to an object of
// a loadable class. When the walker stopped short in an eager chunk, the
// chunk-level relativization audit explains why.
func (rd *Reader) verifyTop(rel uint64) error {
	if rd.parsed < len(rd.chunks) {
		c := &rd.chunks[rd.parsed]
		if rel >= c.startRel+uint64(c.done) {
			var audit []verify.Violation
			if !rd.arena {
				audit = verify.CheckChunk(rd.rt.Heap, rd.rt, verify.Chunk{
					Base: c.base, Size: c.size, Done: c.done, Limit: rd.received(),
				})
			}
			return fmt.Errorf("skyway: verify: top mark %#x arrived with chunk %d walked only to %d/%d bytes; audit: %v",
				rel, rd.parsed, c.done, c.size, audit)
		}
	}
	if rel == 0 {
		return nil
	}
	a, err := rd.translate(rel, &rd.rootHint)
	if err != nil {
		return fmt.Errorf("skyway: verify: top mark: %w", err)
	}
	if rd.arena {
		c := &rd.chunks[sort.Search(len(rd.chunks), func(i int) bool { return rd.chunks[i].startRel > rel })-1]
		off := rel - c.startRel + klass.OffKlass
		if off+klass.WordSize > uint64(len(c.seg)) {
			return fmt.Errorf("skyway: verify: top mark %#x names the last bytes of its chunk, not an object", rel)
		}
		tid := int32(uint32(binary.LittleEndian.Uint64(c.seg[off:])))
		if _, err := rd.rt.KlassByTID(tid); err != nil {
			return fmt.Errorf("skyway: verify: top mark %#x names %#x whose type ID %d is not loadable: %v",
				rel, uint64(a), tid, err)
		}
	} else if !rd.rt.ValidKlassWord(rd.rt.Heap.KlassWord(a)) {
		return fmt.Errorf("skyway: verify: top mark %#x names %#x whose klass word %#x is not a loaded class",
			rel, uint64(a), rd.rt.Heap.KlassWord(a))
	}
	return nil
}

// Free releases every input chunk this reader created. The objects inside
// become garbage (unless reachable some other way, which the application
// must not assume). Mirrors the explicit buffer-free API of §3.2.
func (rd *Reader) Free() {
	for _, p := range rd.pins {
		rd.rt.GC.Unpin(p)
	}
	rd.pins = nil
	if rd.region != nil {
		rd.region.Release()
		rd.region = nil
	}
	rd.chunks = nil
	rd.runs = rd.run0[:0]
	rd.parsed = 0
}
