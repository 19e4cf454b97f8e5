package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"
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
// segment is read straight into a chunk allocated in the heap's pinned
// buffer space (a compact one inflated there in place), and when a top mark
// arrives the new chunks are absolutized
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
	// pooled: r came from readerPool, and Free gives it back.
	pooled bool

	headerRead bool
	streamID   uint16
	// scratch receives the stream header, a segment header and an 'M'
	// frame's length word: read into a local, each would escape to the heap.
	scratch [streamHeaderLen]byte

	// tops is the window of top marks peeked but not yet returned, all
	// topsPeeked bytes of which are still to be discarded (see peekMarks):
	// whole uvarints of the 'M' frame that has marksLeft bytes still unpeeked
	// behind the window. prevTop is the last non-null mark yielded, which the
	// next one is a delta against.
	tops       []byte
	topsPeeked int
	marksLeft  uint32
	prevTop    uint64

	// chunks is the reader's only record of what it has received: one entry
	// per segment, ascending startRel, back to back from relBias.
	// chunks[:parsed] are walked (absolutized, or arena-validated), and done
	// is how far the walk got into chunks[parsed]: a segment can end
	// mid-graph (the sender flushed because its output buffer filled, §4.2
	// streaming), leaving objects whose references point beyond the received
	// data; those are deferred until more segments arrive — the paper's
	// "block the computation on buffers into which data is being streamed
	// until the absolutization pass is done" (§4.3).
	chunks []chunk
	parsed int
	done   uint32
	// contig: every eager chunk is its predecessor's neighbour in buffer
	// space, so a relative address translates with one addition. Buffer space
	// hands out neighbours until its free list interferes.
	contig bool

	// arena selects the lazy-absolutization decode path (arena_reader.go):
	// segments stage into region instead of pinned buffer space, roots come
	// back as tagged arena addresses.
	arena  bool
	region *arena.Region

	// err is the first non-EOF error ReadObject returned (errFreed after
	// Free), and what every later call returns: a stream that failed once has
	// lost its place in the relative address space, and must not yield
	// another root.
	err error

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

// chunk is one received segment: img is the walker's image of it — a view of
// the pinned buffer-space range at base, or an arena mapping (base Null, pin
// nil) — captured once at staging.
type chunk struct {
	startRel uint64
	img      []byte
	base     heap.Addr
	pin      *gc.PinnedRange
}

// readerPool recycles the read buffers of streams opened over anything but a
// *bufio.Reader: a stream is often one small graph, and allocating and
// zeroing a fresh buffer would cost it more than decoding it.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 16<<10) }}

// errFreed is what ReadObject returns once Free has been called.
var errFreed = errors.New("skyway: read from a freed stream")

// NewReader opens a Skyway object input stream over r for runtime rt.
func NewReader(rt *vm.Runtime, r io.Reader, opts ...ReaderOption) *Reader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = readerPool.Get().(*bufio.Reader)
		br.Reset(r)
	}
	rd := &Reader{rt: rt, r: br, pooled: !ok, prevTop: relBias, verify: verify.Enabled()}
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
// returned at end of stream; any malformed input surfaces as a *DecodeError,
// and once one has, so does every later call.
func (rd *Reader) ReadObject() (heap.Addr, error) {
	if rd.err != nil {
		return heap.Null, rd.err
	}
	a, err := rd.readObject()
	if err != nil && err != io.EOF {
		rd.err = err
		if _, ok := AsDecodeError(err); ok {
			ctrDecodeErrors.Inc()
		}
	}
	return a, err
}

func (rd *Reader) readObject() (heap.Addr, error) {
	if !rd.headerRead {
		layout, sid, err := readHeader(rd.r, &rd.scratch)
		if err != nil {
			return heap.Null, err
		}
		if layout != rd.rt.Heap.Layout() {
			return heap.Null, &DecodeError{Kind: DecodeFrame, Stream: sid,
				Detail: fmt.Sprintf("stream is in layout %+v but receiver heap uses %+v", layout, rd.rt.Heap.Layout())}
		}
		rd.streamID = sid
		rd.headerRead = true
	}
	for {
		if len(rd.tops) > 0 {
			rel, err := rd.nextTop()
			if err != nil {
				return heap.Null, err
			}
			return rd.root(rel)
		}
		if rd.marksLeft > 0 {
			if err := rd.peekMarks(); err != nil {
				return heap.Null, err
			}
			continue
		}
		tag, err := rd.r.ReadByte()
		if err != nil {
			return heap.Null, rd.decodeWrap(DecodeFrame, 0, noEOF(err))
		}
		switch tag {
		case frameSegment, frameRuns:
			if err := rd.readSegment(tag); err != nil {
				return heap.Null, err
			}
		case frameMarks:
			n := rd.scratch[:4]
			if _, err := io.ReadFull(rd.r, n); err != nil {
				return heap.Null, rd.decodeWrap(DecodeFrame, 0, noEOF(err))
			}
			rd.marksLeft = binary.BigEndian.Uint32(n)
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

// peekMarks opens the window of top marks on the 'M' frame the stream stands
// in: as many whole uvarints of its remaining marksLeft bytes as are
// buffered, the first one at least. A sender queues a segment's top marks in
// one frame, so taking them off one Peek costs a root a slice operation
// instead of a bufio call. The window is bufio's own buffer; it stays valid
// because the Reader reads nothing else until the last mark in it has been
// taken, and only then discards them all.
func (rd *Reader) peekMarks() error {
	// A window is never longer than the buffer it is peeked from.
	left := int(min(rd.marksLeft, uint32(rd.r.Size())))
	_, short := rd.r.Peek(min(left, binary.MaxVarintLen64))
	b, _ := rd.r.Peek(min(left, rd.r.Buffered()))
	// A uvarint ends on a byte whose top bit is clear; one cut by the end of
	// the buffer waits for the next window.
	n := len(b)
	for n > 0 && b[n-1]&0x80 != 0 {
		n--
	}
	if n == 0 {
		if short != nil {
			return rd.decodeWrap(DecodeFrame, 0, noEOF(short))
		}
		return rd.decodeErrf(DecodeFrame, 0, "top marks frame holds %d bytes of no whole uvarint", len(b))
	}
	rd.tops, rd.topsPeeked = b[:n], n
	rd.marksLeft -= uint32(n)
	return nil
}

// nextTop takes the next top mark off the window.
func (rd *Reader) nextTop() (rel uint64, err error) {
	// Nearly every delta is one byte (wire.go).
	v, n := uint64(rd.tops[0]), 1
	if v >= 0x80 {
		if v, n = binary.Uvarint(rd.tops); n <= 0 {
			return 0, rd.decodeErrf(DecodeFrame, 0, "top mark delta overflows 64 bits")
		}
	}
	if v != 0 {
		// A delta against the previous non-null mark, in words, so every mark
		// is aligned. The arithmetic wraps: a delta no writer produces lands
		// below the bias, refused here, or beyond the received space, refused
		// by translate.
		rel = rd.prevTop + uint64(unzigzag(v-1))*klass.WordSize
		if rel < relBias {
			return 0, rd.decodeErrf(DecodePointer, rel, "top mark delta lands below the first relative address")
		}
		rd.prevTop = rel
	}
	if rd.tops = rd.tops[n:]; len(rd.tops) == 0 {
		rd.r.Discard(rd.topsPeeked) // cannot fail: these bytes were peeked
	}
	return rel, nil
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
	if rd.verify {
		if err := rd.verifyTop(rel); err != nil {
			return heap.Null, err
		}
	}
	if rel == 0 {
		return heap.Null, nil
	}
	return rd.translate(rel)
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

// readSegment receives one segment frame, standard or compact, whose tag was
// just read. Staging is one sequence on every path: parse the frame header,
// stage a chunk of the segment's in-heap size, receive the wire payload into
// the tail of its image — for a standard segment, the whole image — inflate a
// compact one forward in place, and commit the chunk. One failure rule: a
// chunk is pinned, listed, or committed to its region only after its bytes
// validated; until then its range or mapping goes back.
func (rd *Reader) readSegment(tag byte) error {
	phys, decoded, wireCRC, err := rd.segmentHeader(tag)
	if err != nil {
		return err
	}
	c, err := rd.stage(decoded)
	if err != nil {
		return err
	}
	err = rd.fill(c.img[decoded-phys:], wireCRC)
	if err == nil && tag == frameRuns {
		err = rd.inflate(c.img, phys)
	}
	if err != nil {
		rd.abort(c)
		return err
	}
	corruptStaged(c.img)
	rd.commit(c)
	return nil
}

// segmentHeader parses what follows a segment frame's tag: the payload's wire
// length, the length of the in-heap image it becomes (a compact frame declares
// it; a standard payload IS the image), and the payload's CRC-32C. A payload
// never outgrows its image.
func (rd *Reader) segmentHeader(tag byte) (phys, decoded, wireCRC uint32, err error) {
	lens := rd.scratch[:4]
	if tag == frameRuns {
		lens = rd.scratch[:8]
	}
	if _, err := io.ReadFull(rd.r, lens); err != nil {
		return 0, 0, 0, rd.decodeWrap(DecodeFrame, 0, noEOF(err))
	}
	phys = binary.BigEndian.Uint32(lens)
	decoded = binary.BigEndian.Uint32(lens[len(lens)-4:])
	if decoded%klass.WordSize != 0 || phys == 0 || phys > decoded || decoded > maxSegmentBytes {
		return 0, 0, 0, rd.decodeErrf(DecodeLength, uint64(decoded), "bad segment lengths %d/%d", phys, decoded)
	}
	crc := rd.scratch[:4]
	if _, err := io.ReadFull(rd.r, crc); err != nil {
		return 0, 0, 0, rd.decodeWrap(DecodeFrame, 0, noEOF(err))
	}
	return phys, decoded, binary.BigEndian.Uint32(crc), nil
}

// stage reserves the chunk that will hold the next n bytes of the relative
// address space: a range of buffer space the collector does not know yet, or
// an arena mapping its region does not list yet.
func (rd *Reader) stage(n uint32) (chunk, error) {
	c := chunk{startRel: rd.received()}
	if rd.arena {
		reg, err := rd.arenaRegion()
		if err != nil {
			return c, err
		}
		if c.img, err = reg.Stage(n); err != nil {
			return c, rd.decodeWrap(DecodeResource, uint64(n), err)
		}
		return c, nil
	}
	// Failpoint: a receiver under memory pressure loses the allocation race
	// at exactly this safepoint.
	if !fault.Eval(fault.CoreAllocBuffer) {
		c.base = rd.rt.Heap.AllocBuffer(n)
	}
	if c.base == heap.Null {
		return c, rd.decodeErrf(DecodeResource, uint64(n),
			"input-buffer space exhausted allocating %d-byte chunk (free unused buffers or enlarge Config.BufferSize)", n)
	}
	c.img = rd.rt.Heap.ByteView(c.base, n)
	return c, nil
}

// abort gives back a staged chunk whose bytes did not validate.
func (rd *Reader) abort(c chunk) {
	if rd.arena {
		rd.region.Discard(c.img)
	} else {
		rd.rt.Heap.FreeBufferRange(c.base, uint32(len(c.img)))
	}
}

// commit lists a staged chunk whose bytes validated at the end of the
// received relative address space. An eager chunk is pinned unparsed, so the
// collector treats the raw bytes as opaque until the walk has passed them; an
// arena chunk becomes readable through its region's handles.
func (rd *Reader) commit(c chunk) {
	n := uint32(len(c.img))
	if rd.arena {
		rd.region.Commit(c.startRel, c.img)
	} else {
		c.pin = rd.rt.GC.Pin(c.base, n)
		if len(rd.chunks) == 0 {
			rd.contig = true
		} else if last := &rd.chunks[len(rd.chunks)-1]; last.base.Add(uint32(len(last.img))) != c.base {
			rd.contig = false
		}
	}
	rd.chunks = append(rd.chunks, c)
	rd.Bytes += uint64(n)
	ctrChunks.Inc()
	ctrBytesRecv.Add(int64(n))
}

// fill receives one segment payload into dst, the tail of the staged chunk
// — the decode path's only copy of a standard segment is the socket read
// itself — and checks it against its wire CRC, after applying any injected
// wire damage. No byte reaches a walker without passing here.
func (rd *Reader) fill(dst []byte, wireCRC uint32) error {
	if _, err := io.ReadFull(rd.r, dst); err != nil {
		return rd.decodeWrap(DecodeFrame, 0, noEOF(err))
	}
	// Failpoints: damage in flight — a flipped bit, a torn (zero-filled)
	// tail. Injected before the checksum gate, which must catch both.
	if fault.Eval(fault.CoreChunkBitflip) && len(dst) > 0 {
		dst[len(dst)/2] ^= 0x10
	}
	if fault.Eval(fault.CoreChunkTruncate) && len(dst) >= 2 {
		clear(dst[len(dst)/2:])
	}
	if got := crc32.Checksum(dst, crcTable); got != wireCRC {
		return rd.decodeErrf(DecodeChecksum, 0, "segment CRC %#x does not match wire CRC %#x over %d bytes", got, wireCRC, len(dst))
	}
	return nil
}

// corruptStaged applies the post-checksum type-ID failpoint: corruption
// that a valid CRC cannot rule out (a buggy sender, receiver-side memory
// damage). It stomps the first object's klass word, exercising the
// walk-time class validation. The matching pointer failpoint lives in
// walkChunk, where a real reference slot is known.
func corruptStaged(img []byte) {
	if fault.Eval(fault.CoreChunkBadTID) && len(img) >= int(klass.OffKlass)+8 {
		binary.LittleEndian.PutUint64(img[klass.OffKlass:], 0x7FFFFFF0)
	}
}

// translate maps a (biased) relative address to the address the application
// will use — the paper's two-step translation for buffers that span multiple,
// possibly underfilled chunks.
func (rd *Reader) translate(rel uint64) (heap.Addr, error) {
	// Unsigned: an address below the bias wraps far past the end.
	if rel-relBias >= rd.received()-relBias {
		return heap.Null, rd.decodeErrf(DecodePointer, rel, "relative address outside received chunks")
	}
	if rd.arena {
		// Arena chunks have no heap address: the handle IS the (tagged)
		// relative address, resolved per access by the vm layer.
		return heap.ComposeArenaAddr(rd.region.ID(), rel), nil
	}
	c := &rd.chunks[0]
	if !rd.contig {
		c = rd.chunkOf(rel)
	}
	return c.base + heap.Addr(rel-c.startRel), nil
}

// chunkOf returns the chunk that holds rel, which lies inside the received
// space.
func (rd *Reader) chunkOf(rel uint64) *chunk {
	return &rd.chunks[sort.Search(len(rd.chunks), func(i int) bool { return rd.chunks[i].startRel > rel })-1]
}

// received returns the end of the received relative address space.
func (rd *Reader) received() uint64 {
	if len(rd.chunks) == 0 {
		return relBias
	}
	last := &rd.chunks[len(rd.chunks)-1]
	return last.startRel + uint64(len(last.img))
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
	limit := rd.received()
	objects0 := rd.Objects
	var err error
	for rd.parsed < len(rd.chunks) {
		c := &rd.chunks[rd.parsed]
		var done bool
		done, err = rd.walkChunk(c, limit)
		if err != nil || !done {
			break
		}
		if !rd.arena {
			// The chunk is now walkable; tell the collector and dirty its
			// cards so the next scavenge scans it for young pointers.
			c.pin.Parsed = true
			rd.rt.Heap.DirtyRange(c.base, uint32(len(c.img)))
		}
		rd.parsed++
		rd.done = 0
	}
	ctrObjectsRecv.Add(int64(rd.Objects - objects0))
	return err
}

// walkChunk scans the image of chunk c, the first unparsed one, from rd.done:
// for each object it resolves the global type ID, bounds the object by its
// chunk, and checks every reference slot, and reports whether it reached the
// end of the chunk (false, nil: an object references data not yet received,
// all of which lies below limit).
//
// Validation order is the §4.3 hardening contract: an object's class, its
// size against its chunk, and every one of its reference slots are checked
// before the first mutation of the object — an eager reader's commit is per
// object, never partial. Registered field updates apply on both paths, once,
// at receive time.
func (rd *Reader) walkChunk(c *chunk, limit uint64) (bool, error) {
	rt, img := rd.rt, c.img
	offLen := rt.Heap.Layout().OffArrayLen()
	off := rd.done
	for uint64(off) < uint64(len(img)) {
		relOff := c.startRel + uint64(off)
		// The rest of the image is the room.
		room := uint64(len(img)) - uint64(off)
		if room < klass.OffKlass+klass.WordSize {
			return false, rd.decodeErrf(DecodeLength, relOff, "%d-byte tail of the chunk is too short for an object header", room)
		}
		tid := int32(uint32(binary.LittleEndian.Uint64(img[off+klass.OffKlass:])))
		k, err := rt.KlassByTID(tid)
		if err != nil {
			return false, rd.decodeWrap(DecodeType, relOff, err)
		}
		// A length word is read only when the array header fits in the room;
		// otherwise the zero fails on the header.
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
				rd.done = off
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
				abs, err := rd.translate(rel)
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
		rd.done = off
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
		if rel >= c.startRel+uint64(rd.done) {
			var audit []verify.Violation
			if !rd.arena {
				audit = verify.CheckChunk(rd.rt.Heap, rd.rt, verify.Chunk{
					Base: c.base, Size: uint32(len(c.img)), Done: rd.done, Limit: rd.received(),
				})
			}
			return fmt.Errorf("skyway: verify: top mark %#x arrived with chunk %d walked only to %d/%d bytes; audit: %v",
				rel, rd.parsed, rd.done, len(c.img), audit)
		}
	}
	if rel == 0 {
		return nil
	}
	a, err := rd.translate(rel)
	if err != nil {
		return fmt.Errorf("skyway: verify: top mark: %w", err)
	}
	if rd.arena {
		c := rd.chunkOf(rel)
		off := rel - c.startRel + klass.OffKlass
		if off+klass.WordSize > uint64(len(c.img)) {
			return fmt.Errorf("skyway: verify: top mark %#x names the last bytes of its chunk, not an object", rel)
		}
		tid := int32(uint32(binary.LittleEndian.Uint64(c.img[off:])))
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
// must not assume). Mirrors the explicit buffer-free API of §3.2. The stream
// ends here: a read buffer the reader drew from the pool goes back, and every
// later ReadObject fails without touching it.
func (rd *Reader) Free() {
	rd.err = errFreed
	rd.tops = nil
	if rd.pooled {
		rd.r.Reset(nil)
		readerPool.Put(rd.r)
		rd.pooled = false
	}
	rd.r = nil
	for i := range rd.chunks {
		if p := rd.chunks[i].pin; p != nil {
			rd.rt.GC.Unpin(p)
		}
	}
	if rd.region != nil {
		rd.region.Release()
		rd.region = nil
	}
	rd.chunks = nil
	rd.parsed, rd.done = 0, 0
}
