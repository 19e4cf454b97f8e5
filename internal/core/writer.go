package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"time"

	"skyway/internal/fault"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/obs"
	"skyway/internal/verify"
	"skyway/internal/vm"
)

// Process-wide transfer counters, exported on /metrics.
var (
	ctrObjectsSent  = obs.NewCounter("skyway_transfer_objects_sent_total", "Objects copied into Skyway output buffers.")
	ctrBytesSent    = obs.NewCounter("skyway_transfer_bytes_sent_total", "Bytes written to Skyway output streams.")
	ctrOverflowHits = obs.NewCounter("skyway_transfer_overflow_hits_total", "Shared-object visits resolved through the thread-local hash table instead of the baddr word.")
	ctrSendStreams  = obs.NewCounter("skyway_transfer_send_streams_total", "Skyway sender streams closed.")
)

// DefaultBufferSize is the default output-buffer capacity. Output buffers
// live in native (non-heap) memory — here an ordinary Go byte slice — so the
// collector can never reclaim objects that are still being streamed (§3.2).
const DefaultBufferSize = 256 << 10

// Writer streams object graphs into a destination, implementing the sender
// side of Skyway: a BFS "GC-like" traversal that clones every reachable
// object into the output buffer, relativizes its reference fields, rewrites
// its klass word to the global type ID, and flushes the buffer in segments
// as it fills (Algorithm 2).
type Writer struct {
	rt *vm.Runtime
	w  io.Writer

	streamID uint16
	sid      uint8 // shuffle phase the writer was opened in
	// err is the stream's first failure, and what WriteObject, Flush and Close
	// return from then on: a writer whose traversal or flush failed midway has
	// claimed relative addresses for bytes that never reached the wire, so
	// nothing it wrote afterwards could be decoded. It is set at open when the
	// phase had no stream ID left that is this writer's alone
	// (vm.StreamIDsExhaustedError).
	err error

	// buf is the physical output buffer, drawn from the process-wide pool
	// and returned on Close; its capacity may exceed limit. All flush and
	// growth decisions run against limit — the *logical* capacity — so
	// segmentation (and therefore the wire bytes) is independent of what
	// the pool happened to hand out.
	buf       []byte
	limit     int    // logical buffer capacity governing segment flushes
	fixedBuf  bool   // WithBufferSize pinned limit explicitly
	flushed   uint64 // ob.flushedBytes (biased: starts at relBias)
	allocable uint64 // ob.allocableAddr (biased)

	// head, hdr and vec are reusable frame-write scratch: the stream header
	// (which goes out with the first flush), the segment header and the
	// vector handed to net.Buffers, re-sliced from vecArr on every flush, so
	// a flush allocates nothing and reaches a net.Conn destination as one
	// writev.
	head   [streamHeaderLen]byte
	hdr    [13]byte
	vec    net.Buffers
	vecArr [4][]byte

	// tops queues top marks as the body of one 'M' frame, behind room for
	// its header, until the next segment flush so that one root forces
	// neither one segment nor one write per root; the paper writes top marks
	// into the buffer for the same reason. prevTop is the last non-null mark
	// queued — flushedTop, as of the last flush, which is where verifyTops
	// starts decoding.
	tops       []byte
	prevTop    uint64
	flushedTop uint64

	// Local stat accumulators, folded into the runtime's shared stats on
	// Flush/Close (hot-loop synchronisation is expensive). foldedObjects and
	// foldedBytes are how much of Objects and Bytes has been folded.
	headerB, padB, ptrB, overflowHits uint64
	foldedObjects, foldedBytes        uint64

	// Per-writer cumulative composition totals (never reset), reported on
	// the stream's transfer span at Close.
	totHeaderB, totPadB, totPtrB, totOverflow uint64

	// openedAt anchors the stream's transfer span; zero when tracing was
	// disabled at open time.
	openedAt time.Time

	// overflow is the thread-local visited table used when an object's
	// baddr word is owned by another stream this phase, or when the heap
	// layout has no baddr word at all (the paper's hash-table fallback).
	overflow map[heap.Addr]uint64

	gray     []grayRec
	grayHead int

	headerWritten bool
	closed        bool
	growBuf       bool // buffer may still grow toward DefaultBufferSize
	verify        bool // SKYWAY_VERIFY debug assertions on relativized refs

	// Compact mode (compact.go): decodedInBuf tracks how many logical
	// (inflated) bytes the physical buffer corresponds to, and runAt is where
	// in buf the open run of runTID records keeps its flags byte (0: no run
	// is open).
	compact      bool
	decodedInBuf uint32
	runAt        int
	runTID       int32

	// Objects and Bytes report per-writer transfer volume.
	Objects uint64
	Bytes   uint64
}

// grayRec is one claimed object awaiting its clone: where it lives, where
// its image goes, its klass, and k.Extent's answer: the image's size and the
// reference-slot count.
type grayRec struct {
	obj   heap.Addr
	rel   uint64
	k     *klass.Klass
	size  uint32
	nrefs int
}

// WriterOption configures a Writer.
type WriterOption func(*Writer)

// WithBufferSize sets the output-buffer capacity in bytes.
func WithBufferSize(n int) WriterOption {
	return func(w *Writer) { w.limit, w.fixedBuf = n, true }
}

// WithCompactHeaders enables the compact segment body (compact.go): header
// words the receiver can rebuild (klass pointer, unhashed mark, baddr) leave
// each object image and consecutive objects of one klass share a run header
// — the header compression the paper proposes as future work (§5.2). The
// receiver re-inflates the same images; every other frame is the one both
// wires share.
func WithCompactHeaders() WriterOption {
	return func(w *Writer) { w.compact = true }
}

// NewWriter opens a Skyway object output stream over w.
func (s *Skyway) NewWriter(w io.Writer, opts ...WriterOption) *Writer {
	wr := &Writer{
		rt: s.rt,
		w:  w,

		flushed:    relBias,
		allocable:  relBias,
		prevTop:    relBias,
		flushedTop: relBias,
		verify:     verify.Enabled(),
	}
	var ok bool
	wr.sid, wr.streamID, ok = s.rt.OpenStream()
	if !ok {
		wr.err = fmt.Errorf("skyway: stream %d: %w", wr.streamID, &vm.StreamIDsExhaustedError{Phase: wr.sid})
	}
	if obs.Enabled() {
		wr.openedAt = time.Now()
	}
	for _, o := range opts {
		o(wr)
	}
	if !wr.fixedBuf {
		// Start small and grow geometrically up to DefaultBufferSize:
		// short streams (one record per stream, as in JSBS) stay cheap
		// while long shuffle streams still flush in large segments.
		wr.limit = 4 << 10
		wr.growBuf = true
	}
	wr.buf = getBuf(wr.limit)
	return wr
}

// WriteObject transfers the object graph reachable from root: WriteObjects
// of the one root.
func (w *Writer) WriteObject(root heap.Addr) error {
	roots := [1]heap.Addr{root}
	return w.WriteObjects(roots[:])
}

// RootWindow is how many roots WriteObjects reads ahead of its claims.
const RootWindow = 64

// WriteObjects transfers the object graph reachable from each root, in
// order. A root already copied in the current shuffle phase (by this writer)
// goes out as a backward reference (top mark) only; a Null root writes a null
// top mark. The bytes are those of one call per root. The first error is
// final: every later call returns it.
//
// The phase guard is held for the whole batch: ShuffleStart cannot advance
// sID (or clear baddr words on wrap) while this writer is claiming them, so
// every claim the call publishes is composed with the phase checked here.
func (w *Writer) WriteObjects(roots []heap.Addr) error {
	if w.closed {
		return fmt.Errorf("skyway: write on closed stream")
	}
	if w.err != nil {
		return w.err
	}
	if !w.rt.HoldPhase(w.sid) {
		return fmt.Errorf("skyway: writer opened in shuffle phase %d used in phase %d; open a new writer after ShuffleStart", w.sid, w.rt.Phase())
	}
	defer w.rt.ReleasePhase()
	w.err = w.writeObjects(roots)
	return w.err
}

func (w *Writer) writeObjects(roots []heap.Addr) error {
	h := w.rt.Heap
	for len(roots) > 0 {
		win := roots[:min(len(roots), RootWindow)]
		roots = roots[len(win):]
		// A shuffle hands over records in key order, scattered over the heap,
		// so a root's first touch is a cache miss, and claiming it a locked
		// instruction no later load can pass: root by root, the misses queue
		// up one behind the other. Every baddr word of the window is loaded
		// before its first claim — independent loads, which overlap — the way
		// a tracing collector prefetches what it has just greyed.
		if len(win) > 1 && h.Layout().Baddr {
			for _, root := range win {
				if root != heap.Null {
					h.AtomicBaddr(root)
				}
			}
		}
		for _, root := range win {
			if root == heap.Null {
				w.queueTop(0)
				continue
			}
			rel, visited := w.visit(root)
			if !visited {
				// The gray queue is empty between roots, so the root's image
				// is next in the buffer: it is cloned straight from its claim,
				// and only what it references goes through the queue. A
				// ref-free record never touches the queue at all.
				var first grayRec
				if err := w.reserve(root, &first); err != nil {
					return err
				}
				// rec may point into the queue, which cloneInBuffer grows: its
				// fields are read out as arguments before the call.
				for rec := &first; ; w.grayHead++ {
					if err := w.cloneInBuffer(rec.obj, rec.rel, rec.k, rec.size, rec.nrefs); err != nil {
						return err
					}
					if w.grayHead == len(w.gray) {
						break
					}
					rec = &w.gray[w.grayHead]
				}
				w.gray = w.gray[:0]
				w.grayHead = 0
			}
			// Otherwise WRITEBACKWARDREFERENCE: the graph is already in the
			// buffer.
			w.queueTop(rel)
		}
	}
	return nil
}

// visit returns the relative buffer address of obj and whether it was already
// visited this phase. A first visit claims the address at w.allocable; the
// caller must reserve the clone's space there before it visits anything else.
func (w *Writer) visit(obj heap.Addr) (rel uint64, already bool) {
	h := w.rt.Heap
	sid := w.sid
	if !h.Layout().Baddr {
		// No baddr header word on this heap (vanilla layout): every
		// visit goes through the hash table — the design the baddr
		// field exists to avoid (ablation: AblationBaddr).
		return w.visitOverflow(obj)
	}
	for {
		v := h.AtomicBaddr(obj)
		if heap.BaddrPhase(v) == sid {
			if heap.BaddrStream(v) == w.streamID {
				return heap.BaddrRel(v), true
			}
			// Claimed by another stream this phase: fall back to
			// the thread-local table (§4.2 Support for Threads).
			w.overflowHits++
			return w.visitOverflow(obj)
		}
		// Stale phase: try to claim the baddr word.
		rel = w.allocable
		if h.CasBaddr(obj, v, heap.ComposeBaddr(sid, w.streamID, rel)) {
			return rel, false
		}
		// Lost the race; retry the load.
	}
}

// visitOverflow is visit through the thread-local hash table.
func (w *Writer) visitOverflow(obj heap.Addr) (rel uint64, already bool) {
	if w.overflow == nil {
		w.overflow = make(map[heap.Addr]uint64)
	}
	if rel, ok := w.overflow[obj]; ok {
		return rel, true
	}
	w.overflow[obj] = w.allocable
	return w.allocable, false
}

// reserve allocates the relative address space of obj's clone at w.allocable
// — the address visit just claimed for it — and fills in its gray record.
// (In place, and read back field by field: a record written as words and
// then copied as a whole stalls on store forwarding, once per object.)
func (w *Writer) reserve(obj heap.Addr, rec *grayRec) error {
	k := w.rt.KlassOf(obj)
	var n uint64
	if k.IsArray {
		n = uint64(w.rt.Heap.ArrayLen(obj))
	}
	size, nrefs, ok := k.Extent(n, math.MaxUint32)
	if !ok {
		return fmt.Errorf("skyway: %s of length %d has no 32-bit size", k.Name, n)
	}
	rec.obj, rec.rel, rec.k, rec.size, rec.nrefs = obj, w.allocable, k, size, nrefs
	w.allocable += uint64(size)
	if w.allocable-relBias > heap.BaddrRelMask {
		return fmt.Errorf("skyway: stream exceeded 1 TiB relative address space")
	}
	return nil
}

// cloneInBuffer copies a reserved object into the output buffer at its
// relative address (CLONEINBUFFER + header update + reference
// relativization, Algorithm 2 lines 10-27). Everything that depends only on
// the klass — sizes, byte composition, ref-slot tables — was fixed when the
// klass was resolved.
func (w *Writer) cloneInBuffer(obj heap.Addr, rel uint64, k *klass.Klass, size uint32, nrefs int) error {
	h := w.rt.Heap
	layout := h.Layout()
	if k.TID < 0 {
		return fmt.Errorf("skyway: class %s has no global type ID (runtime %s is not attached to a registry)", k.Name, w.rt.Name)
	}

	// need over-estimates the physical bytes this object adds to the buffer.
	need := int(size)
	if w.compact {
		need += compactRecordMax
	}
	if len(w.buf)+need > w.limit {
		if err := w.makeRoom(need); err != nil {
			return err
		}
	}
	w.ensureCap(len(w.buf) + need)

	// One copy of everything behind the header, then patch the reference
	// slots in place — no per-field access for primitive data. The header is
	// written (or, on the compact wire, left out), not copied: all of its
	// words are replaced anyway, and copying the baddr word would be a plain
	// read racing the claims of concurrent senders that share the object.
	// imgAt is where the image's offset 0 stands in the buffer — before the
	// buffer's first byte, perhaps, on the compact wire, which carries the
	// image from k.HeaderBytes on only.
	var imgAt int
	if w.compact {
		if rel-w.flushed != uint64(w.decodedInBuf) {
			panic("skyway: buffer position diverged from relative address")
		}
		imgAt = w.appendRecord(obj, k, size) - int(k.HeaderBytes)
	} else {
		if rel-w.flushed != uint64(len(w.buf)) {
			panic("skyway: buffer position diverged from relative address")
		}
		imgAt = len(w.buf)
		w.buf = w.buf[:imgAt+int(size)]
		img := w.buf[imgAt:]
		hdr := layout.HeaderSize()
		h.CopyOut(obj.Add(hdr), size-hdr, img[hdr:])

		// Header update: reset GC/lock/age bits preserving the hashcode,
		// install the global type ID, clear the clone's baddr.
		binary.LittleEndian.PutUint64(img[klass.OffMark:], heap.ResetTransientMarkBits(h.Mark(obj)))
		binary.LittleEndian.PutUint64(img[klass.OffKlass:], uint64(uint32(k.TID)))
		if layout.Baddr {
			binary.LittleEndian.PutUint64(img[layout.OffBaddr():], 0)
		}
	}

	// Relativize references. payload is the unpadded field data, for the
	// byte-composition accounting below.
	payload := k.PayloadBytes
	if k.IsArray {
		payload = uint32(h.ArrayLen(obj)) * k.ElemSize()
	}
	for i := 0; i < nrefs; i++ {
		off := k.RefSlot(i)
		if err := w.relativize(w.buf[imgAt+int(off):], obj, off); err != nil {
			return err
		}
	}

	// Accounting for the byte-composition analysis (§5.2).
	w.Objects++
	w.Bytes += uint64(size)
	w.headerB += uint64(k.HeaderBytes)
	w.ptrB += uint64(nrefs) * 8
	w.padB += uint64(size - k.HeaderBytes - payload)
	return nil
}

// makeRoom makes the output buffer take need more bytes: it grows the
// logical capacity while that is still allowed, and otherwise flushes the
// buffer as a segment.
func (w *Writer) makeRoom(need int) error {
	if w.growBuf && w.limit < DefaultBufferSize {
		// Grow the logical capacity instead of flushing a tiny segment.
		next := w.limit * 2
		for next < len(w.buf)+need {
			next *= 2
		}
		if next > DefaultBufferSize && len(w.buf)+need <= DefaultBufferSize {
			next = DefaultBufferSize
		}
		w.limit = next
	}
	if len(w.buf)+need > w.limit {
		if err := w.flushSegment(); err != nil {
			return err
		}
		if need > w.limit {
			// Oversized object: give it a dedicated segment.
			w.limit = need
		}
	}
	return nil
}

// ensureCap grows the physical buffer to hold at least n bytes, recycling
// the old backing through the pool. Physical growth never affects
// segmentation: every flush decision reads w.limit, not cap(w.buf).
func (w *Writer) ensureCap(n int) {
	if cap(w.buf) >= n {
		return
	}
	if n < w.limit {
		n = w.limit
	}
	bigger := getBuf(n)[:len(w.buf)]
	copy(bigger, w.buf)
	putBuf(w.buf)
	w.buf = bigger
}

// relativize writes the relative address of the object obj references at off
// into slot, that offset of the clone image, visiting the referee if new.
func (w *Writer) relativize(slot []byte, obj heap.Addr, off uint32) error {
	o := heap.Addr(w.rt.Heap.Load(obj, off, klass.Ref))
	if o == heap.Null {
		binary.LittleEndian.PutUint64(slot, 0)
		return nil
	}
	childRel, visited := w.visit(o)
	if !visited {
		w.gray = append(w.gray, grayRec{})
		if err := w.reserve(o, &w.gray[len(w.gray)-1]); err != nil {
			w.gray = w.gray[:len(w.gray)-1]
			return err
		}
	}
	if w.verify && (childRel < relBias || childRel >= w.allocable) {
		// §4.2 invariant: a relativized pointer always lands inside the
		// stream's allocated relative space. Trips only on verifier-visible
		// bookkeeping corruption, e.g. a stale baddr claim surviving a
		// phase change.
		return fmt.Errorf("skyway: verify: relativized pointer %#x outside allocated relative space [%#x, %#x)",
			childRel, uint64(relBias), w.allocable)
	}
	binary.LittleEndian.PutUint64(slot, childRel)
	return nil
}

// foldStats publishes the writer's local accumulators into the runtime's
// shared stats.
func (w *Writer) foldStats() {
	objects, bytes := w.Objects-w.foldedObjects, w.Bytes-w.foldedBytes
	if objects == 0 && w.overflowHits == 0 {
		return
	}
	w.rt.AddTransferStats(Stats{
		ObjectsSent:  objects,
		BytesSent:    bytes,
		HeaderBytes:  w.headerB,
		PointerBytes: w.ptrB,
		PaddingBytes: w.padB,
		OverflowHits: w.overflowHits,
	})
	ctrObjectsSent.Add(int64(objects))
	ctrBytesSent.Add(int64(bytes))
	ctrOverflowHits.Add(int64(w.overflowHits))
	w.totHeaderB += w.headerB
	w.totPtrB += w.ptrB
	w.totPadB += w.padB
	w.totOverflow += w.overflowHits
	w.foldedObjects, w.foldedBytes = w.Objects, w.Bytes
	w.headerB, w.ptrB, w.padB, w.overflowHits = 0, 0, 0, 0
}

// flushSegment streams the current buffer out as one segment/chunk — with
// its CRC-32C, so the receiver rejects torn or bit-flipped transfers —
// followed by the queued top marks (whose objects are then fully on the
// wire), all in one vectored write: a single writev syscall when the
// destination is a net.Conn (net.Buffers fast path), a plain sequence of
// writes — byte-identical on the wire — for buffered and in-memory
// destinations. The stream header goes out in front of the first flush.
func (w *Writer) flushSegment() error {
	// Failpoint: the transport fails mid-flush (a severed connection, a
	// full pipe). Surfaces to the caller exactly like a Write error.
	if err := fault.Inject(fault.CoreWriteFail); err != nil {
		return err
	}
	w.vec = w.vecArr[:0]
	if !w.headerWritten {
		putHeader(&w.head, w.rt.Heap.Layout(), w.streamID, w.compact)
		w.vec = append(w.vec, w.head[:])
	}
	flushed := w.flushed
	if len(w.buf) > 0 {
		crc := crc32.Checksum(w.buf, crcTable)
		hn := 9
		if w.compact {
			w.hdr[0] = frameRuns
			binary.BigEndian.PutUint32(w.hdr[1:], uint32(len(w.buf)))
			binary.BigEndian.PutUint32(w.hdr[5:], w.decodedInBuf)
			binary.BigEndian.PutUint32(w.hdr[9:], crc)
			hn = 13
			flushed += uint64(w.decodedInBuf)
		} else {
			w.hdr[0] = frameSegment
			binary.BigEndian.PutUint32(w.hdr[1:], uint32(len(w.buf)))
			binary.BigEndian.PutUint32(w.hdr[5:], crc)
			flushed += uint64(len(w.buf))
		}
		w.vec = append(w.vec, w.hdr[:hn], w.buf)
	}
	if len(w.tops) > 0 {
		binary.BigEndian.PutUint32(w.tops[1:], uint32(len(w.tops)-marksHeaderLen))
		if w.verify {
			if err := w.verifyTops(flushed); err != nil {
				return err
			}
		}
		w.vec = append(w.vec, w.tops)
	}
	if len(w.vec) == 0 {
		return nil
	}
	if _, err := w.vec.WriteTo(w.w); err != nil {
		return err
	}
	w.headerWritten = true
	w.flushed, w.decodedInBuf, w.runAt, w.flushedTop = flushed, 0, 0, w.prevTop
	w.buf = w.buf[:0]
	w.tops = w.tops[:0]
	return nil
}

// verifyTops checks the framing invariant on the queued top marks: a top
// mark reaches the wire only after every byte of the graph it names has
// been flushed. The 'M' frame is decoded the way its reader will, from the
// mark the previous frame ended on.
func (w *Writer) verifyTops(flushed uint64) error {
	prev := w.flushedTop
	for marks := w.tops[marksHeaderLen:]; len(marks) > 0; {
		v, n := binary.Uvarint(marks)
		if n <= 0 {
			return fmt.Errorf("skyway: verify: queued top marks end inside a uvarint")
		}
		marks = marks[n:]
		if v == 0 {
			continue
		}
		prev += uint64(unzigzag(v-1)) * klass.WordSize
		if prev < relBias || prev >= flushed {
			return fmt.Errorf("skyway: verify: top mark %#x outside flushed relative space [%#x, %#x)",
				prev, uint64(relBias), flushed)
		}
	}
	if prev != w.prevTop {
		return fmt.Errorf("skyway: verify: queued top marks decode to %#x, the last one queued was %#x", prev, w.prevTop)
	}
	return nil
}

// queueTop queues a top mark as a delta against the previous one, opening
// the 'M' frame the next flush completes; it reaches the wire with that
// flush, after the bytes of every object it refers to.
func (w *Writer) queueTop(rel uint64) {
	if len(w.tops) == 0 {
		w.tops = append(w.tops, frameMarks, 0, 0, 0, 0)
	}
	if rel == 0 {
		w.tops = append(w.tops, 0)
		return
	}
	d := int64(rel-w.prevTop) / klass.WordSize
	w.tops = binary.AppendUvarint(w.tops, zigzag(d)+1)
	w.prevTop = rel
}

// Flush forces any buffered segment and queued top marks onto the
// underlying writer.
func (w *Writer) Flush() error {
	w.foldStats()
	if w.err == nil {
		w.err = w.flushSegment()
	}
	return w.err
}

// Close flushes and terminates the stream, and recycles the writer's buffers
// (per-stage encoder reuse — a concurrent sender opening one encoder per stage
// draws warm buffers instead of allocating fresh ones). The Writer cannot be
// reused. A stream that failed is not terminated: it gets no further frame,
// so its receiver sees a torn stream, and Close returns the failure.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.foldStats()
	if w.err == nil {
		w.err = w.flushSegment()
	}
	putBuf(w.buf)
	w.buf = nil
	if w.err != nil {
		return w.err
	}
	w.hdr[0] = frameEnd
	_, err := w.w.Write(w.hdr[:1])
	ctrSendStreams.Inc()
	if !w.openedAt.IsZero() {
		w.rt.Trace.Emit("transfer", "skyway.send", w.openedAt, time.Since(w.openedAt),
			obs.I64("objects", int64(w.Objects)),
			obs.I64("bytes", int64(w.Bytes)),
			obs.I64("header_bytes", int64(w.totHeaderB)),
			obs.I64("pointer_bytes", int64(w.totPtrB)),
			obs.I64("padding_bytes", int64(w.totPadB)),
			obs.I64("overflow_hits", int64(w.totOverflow)),
			obs.I64("stream_id", int64(w.streamID)))
	}
	return err
}
