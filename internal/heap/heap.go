// Package heap implements the simulated managed heap: a slab with the 64-bit
// object layout of the paper's Figure 6 (mark word, klass word, Skyway's
// baddr word, array length, padded payload), generational regions (eden, two
// survivor spaces, old generation, and a pinned buffer space for Skyway input
// buffers), and a card table, scanned dirty card to dirty card, with the old
// generation's object-start table.
//
// Addresses are byte offsets into the slab; every object is 8-byte aligned
// and address 0 is the null reference.
//
// Byte order: the slab is defined by its byte image, and that image is
// little-endian on every host — an object's heap bytes are its wire bytes
// (§4.2 clones by memcpy, §4.3 absolutizes the input buffer in place). Every
// plain access reads and writes the image through encoding/binary's
// LittleEndian. The image is allocated as []uint64, for 8-byte alignment and
// because sync/atomic needs whole words: the atomic word operations are the
// only native-order accesses, and they convert their operands and results
// between native and little-endian order (slabWord), so a word written
// atomically reads back identically through LoadWord or ByteView. New builds
// the byte image over the words once — the package's one unsafe construction.
package heap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"unsafe"

	"skyway/internal/klass"
)

// Addr is a byte address within a Heap. 0 is the null reference.
type Addr uint64

// Null is the null reference.
const Null Addr = 0

// Add returns the address n bytes past a. Code outside the heap and core
// layers must derive addresses through Add (or the typed accessors) rather
// than raw Addr arithmetic, so that every address computation is auditable —
// the skywayvet addrarith analyzer enforces this.
func (a Addr) Add(n uint32) Addr { return a + Addr(n) }

// CardSize is the card-table granularity in bytes, matching the 512-byte
// cards of HotSpot's Parallel Scavenge collector.
const CardSize = 512

// Config sizes the heap regions, in bytes. All sizes are rounded up to a
// word multiple.
type Config struct {
	// EdenSize is the young-generation allocation buffer.
	EdenSize uint64
	// SurvivorSize sizes each of the two survivor semispaces.
	SurvivorSize uint64
	// OldSize is the tenured generation for promoted objects.
	OldSize uint64
	// BufferSize is the pinned tenured space that holds Skyway input
	// buffers (§4.3: input buffers live in the old generation and are
	// never moved or reclaimed until explicitly freed).
	BufferSize uint64
	// Layout selects the object header geometry.
	Layout klass.Layout
}

// DefaultConfig returns a modest heap suitable for tests and examples.
func DefaultConfig() Config {
	return Config{
		EdenSize:     8 << 20,
		SurvivorSize: 1 << 20,
		OldSize:      32 << 20,
		BufferSize:   16 << 20,
		Layout:       klass.Layout{Baddr: true},
	}
}

// Region is a contiguous allocation area with a bump pointer.
type Region struct {
	Start Addr
	End   Addr
	Top   Addr
}

// Contains reports whether a lies within the region bounds.
func (r *Region) Contains(a Addr) bool { return a >= r.Start && a < r.End }

// Used returns the number of allocated bytes.
func (r *Region) Used() uint64 { return uint64(r.Top - r.Start) }

// Free returns the number of unallocated bytes.
func (r *Region) Free() uint64 { return uint64(r.End - r.Top) }

// Reset empties the region.
func (r *Region) Reset() { r.Top = r.Start }

// Alloc bump-allocates size bytes, returning Null when the region is full.
// The collector allocates survivor copies through this directly.
func (r *Region) Alloc(size uint64) Addr {
	if uint64(r.End-r.Top) < size {
		return Null
	}
	a := r.Top
	r.Top += Addr(size)
	return a
}

// Heap is one simulated managed heap. It is owned by a single runtime; only
// the atomic word operations (used for Skyway's concurrent baddr updates)
// are safe for concurrent use.
type Heap struct {
	words  []uint64 // the allocation; indexed only by the atomic word operations
	mem    []byte   // the slab: the little-endian byte image of words
	layout klass.Layout
	lenOff uint32 // layout.OffArrayLen(), read without a call by the inlined element path

	Eden     Region
	From     Region // survivor from-space
	To       Region // survivor to-space
	Old      Region
	Buffers  Region // pinned Skyway input-buffer space
	cards    []byte // card table covering the whole slab: cardClean, cardDirty or, inside a collection, cardKept
	sizeEstB uint64

	// oldStarts is the old generation's object-start table: entry i is the
	// object covering the first old-generation byte of card oldCard0+i, where
	// a walk of that card's objects begins. AllocOld maintains it (a full GC
	// compacts by re-bumping the generation through AllocOld), so it is valid
	// for every card below Old.Top.
	oldStarts []Addr
	oldCard0  uint64

	// bufFree holds explicitly freed input-buffer space for reuse — §3.2:
	// "Skyway does not reuse an old input buffer unless the developer
	// explicitly frees the buffer". Spans are in address order, no two
	// adjacent and none touching Buffers.Top (FreeBufferRange merges them);
	// allocation is first-fit.
	bufFree []Region

	// bufHighWater is the peak of BufferUsed over the heap's lifetime —
	// the §5.2 memory-overhead figure for input-buffer space.
	bufHighWater uint64
}

// New builds a heap from cfg.
func New(cfg Config) *Heap {
	round := func(n uint64) uint64 { return (n + klass.WordSize - 1) &^ uint64(klass.WordSize-1) }
	eden := round(cfg.EdenSize)
	surv := round(cfg.SurvivorSize)
	old := round(cfg.OldSize)
	buf := round(cfg.BufferSize)
	// Address 0 is reserved for null, so the slab starts one word in.
	total := uint64(klass.WordSize) + eden + 2*surv + old + buf
	words := make([]uint64, total/klass.WordSize)
	h := &Heap{
		words:  words,
		mem:    unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), total),
		layout: cfg.Layout,
		lenOff: cfg.Layout.OffArrayLen(),
		cards:  make([]byte, (total+CardSize-1)/CardSize),
	}
	cursor := Addr(klass.WordSize)
	carve := func(n uint64) Region {
		r := Region{Start: cursor, End: cursor + Addr(n), Top: cursor}
		cursor += Addr(n)
		return r
	}
	h.Eden = carve(eden)
	h.From = carve(surv)
	h.To = carve(surv)
	h.Old = carve(old)
	h.Buffers = carve(buf)
	h.sizeEstB = total
	h.oldCard0 = uint64(h.Old.Start) / CardSize
	h.oldStarts = make([]Addr, uint64(h.Old.End)/CardSize-h.oldCard0+1)
	// The first card may begin below the generation; its walk begins at the
	// generation's first object, wherever AllocOld puts it.
	h.oldStarts[0] = h.Old.Start
	return h
}

// Layout returns the header geometry of this heap.
func (h *Heap) Layout() klass.Layout { return h.layout }

// TotalBytes returns the slab size in bytes.
func (h *Heap) TotalBytes() uint64 { return h.sizeEstB }

// UsedBytes returns the sum of allocated bytes across regions.
func (h *Heap) UsedBytes() uint64 {
	return h.Eden.Used() + h.From.Used() + h.Old.Used() + h.Buffers.Used()
}

// --- word and sub-word access -------------------------------------------

func (h *Heap) check(a Addr) uint64 {
	i := uint64(a) >> 3
	if a == Null || uint64(a)&7 != 0 || i >= uint64(len(h.words)) {
		panic(badWord(a))
	}
	return i
}

// badWord is check's panic value: formatting the message here, not in check,
// keeps check small enough to inline into every word accessor. badKind does
// the same for loadKind and storeKind, which every typed field and element
// access inlines.
type badWord Addr

func (a badWord) Error() string { return fmt.Sprintf("heap: bad word address %#x", uint64(a)) }

type badKind klass.Kind

func (k badKind) Error() string {
	return fmt.Sprintf("heap: field kind %v has undefined size", klass.Kind(k))
}

// ErrNullDereference is the panic value of a field, header or element access
// through Null: the managed runtime's NullPointerException. Address 0 is one
// reserved word, not an object, and the first object in eden follows it, so
// without the test a read at Null+off returns that object's bytes and a write
// changes them.
var ErrNullDereference = errors.New("heap: null dereference")

// notNull returns a, panicking with ErrNullDereference when it is Null.
func notNull(a Addr) Addr {
	if a == Null {
		panic(ErrNullDereference)
	}
	return a
}

// LoadWord reads the 8-byte word at a (a must be word-aligned).
func (h *Heap) LoadWord(a Addr) uint64 { return binary.LittleEndian.Uint64(h.mem[h.check(a)<<3:]) }

// StoreWord writes the 8-byte word at a.
func (h *Heap) StoreWord(a Addr, v uint64) { binary.LittleEndian.PutUint64(h.mem[h.check(a)<<3:], v) }

// slabWord converts between a value and the native-order word whose bytes in
// memory are the value's little-endian encoding: the identity on a
// little-endian host, a byte swap elsewhere, and its own inverse on both.
func slabWord(v uint64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return binary.NativeEndian.Uint64(b[:])
}

// AtomicLoadWord atomically reads the word at a.
func (h *Heap) AtomicLoadWord(a Addr) uint64 {
	return slabWord(atomic.LoadUint64(&h.words[h.check(a)]))
}

// AtomicStoreWord atomically writes the word at a. Required for words that
// concurrent sender threads may CAS (baddr words): mixing plain stores with
// CAS on the same word is a data race.
func (h *Heap) AtomicStoreWord(a Addr, v uint64) {
	atomic.StoreUint64(&h.words[h.check(a)], slabWord(v))
}

// CasWord performs a compare-and-swap on the word at a. Skyway uses this to
// claim baddr words when multiple sender threads race on a shared object
// (§4.2 "Support for Threads").
func (h *Heap) CasWord(a Addr, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&h.words[h.check(a)], slabWord(old), slabWord(new))
}

// loadKind reads the field of kind k at the head of the object image b,
// zero-extended to 64 bits. With storeKind it is the one place a field's
// kind meets its bytes: the managed heap, an arena segment and a clone under
// construction are all read and written here.
func loadKind(b []byte, k klass.Kind) uint64 {
	switch k.Size() {
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 1:
		return uint64(b[0])
	}
	panic(badKind(k))
}

// storeKind writes v as the field of kind k at the head of b. A kind without
// a size panics: writing nothing would silently drop field bytes from the
// image.
func storeKind(b []byte, k klass.Kind, v uint64) {
	switch k.Size() {
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 1:
		b[0] = byte(v)
	default:
		panic(badKind(k))
	}
}

// Load reads a field of the given kind at byte offset off of the object at
// a. The returned value holds the raw bits zero-extended to 64 bits.
func (h *Heap) Load(a Addr, off uint32, k klass.Kind) uint64 {
	return loadKind(h.mem[uint64(notNull(a))+uint64(off):], k)
}

// Store writes a field of the given kind at byte offset off of the object at
// a.
func (h *Heap) Store(a Addr, off uint32, k klass.Kind, v uint64) {
	storeKind(h.mem[uint64(notNull(a))+uint64(off):], k, v)
}

// StorePrim is Store for a field whose kind is known only at run time but
// must be primitive. It panics on klass.Ref, so a call of it never needs the
// card-table barrier a reference store does: the writebarrier analyzer
// watches Store alone.
func (h *Heap) StorePrim(a Addr, off uint32, k klass.Kind, v uint64) {
	if k == klass.Ref {
		panic("heap: StorePrim on a reference slot; reference stores need the write barrier")
	}
	h.Store(a, off, k, v)
}

// CopyOut copies the n bytes of the slab at a into dst. n and a must be
// word-aligned: object images always are. This is the "transfer the entirety
// of each object" memcpy at the core of Skyway's sender.
func (h *Heap) CopyOut(a Addr, n uint32, dst []byte) {
	if uint32(len(dst)) < n {
		panic("heap: CopyOut destination too small")
	}
	copyAligned(dst, h.ByteView(a, n))
}

// CopyIn copies the first n bytes of src into the slab at a.
func (h *Heap) CopyIn(a Addr, n uint32, src []byte) { copy(h.ByteView(a, n), src[:n]) }

// CopyWords copies n bytes (word multiple) from src to dst within the heap.
// Regions may not overlap.
func (h *Heap) CopyWords(dst, src Addr, n uint32) {
	copy(h.mem[dst:uint64(dst)+uint64(n)], h.mem[src:uint64(src)+uint64(n)])
}

// ZeroWords clears n bytes (word multiple) starting at a.
func (h *Heap) ZeroWords(a Addr, n uint32) { clear(h.mem[a : uint64(a)+uint64(n)]) }

// --- allocation -----------------------------------------------------------

// AllocYoung bump-allocates size bytes (word multiple) in eden, returning
// Null when eden is exhausted; the runtime then triggers a scavenge.
func (h *Heap) AllocYoung(size uint32) Addr { return h.Eden.Alloc(uint64(size)) }

// AllocOld bump-allocates in the old generation and enters the object in the
// object-start table: every card whose first byte it covers now begins its
// walk at it.
func (h *Heap) AllocOld(size uint32) Addr {
	a := h.Old.Alloc(uint64(size))
	if a != Null {
		for c := (uint64(a) + CardSize - 1) / CardSize; c*CardSize < uint64(a)+uint64(size); c++ {
			h.oldStarts[c-h.oldCard0] = a
		}
	}
	return a
}

// OldObjectStart returns the old-generation object covering the first
// old-generation byte of the card holding a: where a walk of that card's
// objects begins. The card must lie below Old.Top.
func (h *Heap) OldObjectStart(a Addr) Addr { return h.oldStarts[uint64(a)/CardSize-h.oldCard0] }

// AllocBuffer allocates in the pinned buffer space used for Skyway input
// buffers. Buffer space is never compacted; chunks return to a free list
// only on an explicit free (§3.2) and are reused first-fit.
func (h *Heap) AllocBuffer(size uint32) Addr {
	for i := range h.bufFree {
		span := &h.bufFree[i]
		if uint64(span.End-span.Start) >= uint64(size) {
			a := span.Start
			span.Start += Addr(size)
			if span.Start == span.End {
				h.bufFree = append(h.bufFree[:i], h.bufFree[i+1:]...)
			}
			h.noteBufferUse()
			return a
		}
	}
	a := h.Buffers.Alloc(uint64(size))
	if a != Null {
		h.noteBufferUse()
	}
	return a
}

// BufferUsed returns the bytes currently live in buffer space: the bump
// extent minus the explicitly freed spans awaiting reuse.
func (h *Heap) BufferUsed() uint64 {
	used := h.Buffers.Used()
	for _, span := range h.bufFree {
		used -= uint64(span.End - span.Start)
	}
	return used
}

// BufferHighWater returns the peak of BufferUsed over the heap's lifetime.
func (h *Heap) BufferHighWater() uint64 { return h.bufHighWater }

func (h *Heap) noteBufferUse() {
	if u := h.BufferUsed(); u > h.bufHighWater {
		h.bufHighWater = u
	}
}

// FreeBufferRange returns an explicitly freed input-buffer chunk to the
// allocator for reuse: merged with the free spans on either side of it, and
// handed back to the bump tail when the result reaches Buffers.Top.
func (h *Heap) FreeBufferRange(a Addr, size uint32) {
	if !h.Buffers.Contains(a) {
		panic(fmt.Sprintf("heap: freeing non-buffer range %#x", uint64(a)))
	}
	end := a + Addr(size)
	f := h.bufFree
	i := sort.Search(len(f), func(i int) bool { return f[i].Start > a })
	lo, hi := i, i // the range absorbs the adjacent spans f[lo:hi]
	if i > 0 && f[i-1].End == a {
		lo, a = i-1, f[i-1].Start
	}
	if i < len(f) && f[i].Start == end {
		hi, end = i+1, f[i].End
	}
	if end == h.Buffers.Top {
		// Every span lies below Top, so none is left above this one.
		h.Buffers.Top = a
		h.bufFree = f[:lo]
		return
	}
	h.bufFree = slices.Replace(f, lo, hi, Region{Start: a, End: end, Top: a})
}

// InYoung reports whether a is in eden or a survivor space.
func (h *Heap) InYoung(a Addr) bool {
	return h.Eden.Contains(a) || h.From.Contains(a) || h.To.Contains(a)
}

// InOld reports whether a is in the old generation proper.
func (h *Heap) InOld(a Addr) bool { return h.Old.Contains(a) }

// InBuffers reports whether a is in the pinned buffer space.
func (h *Heap) InBuffers(a Addr) bool { return h.Buffers.Contains(a) }

// --- card table ------------------------------------------------------------

// Card values. A dirty card is a 1 byte, so the scans find the next one with
// bytes.IndexByte. cardKept exists only inside a collection's card cleaning:
// a dirty card found still covering a young pointer, which SettleCards turns
// back into cardDirty.
const (
	cardClean byte = iota
	cardDirty
	cardKept
)

// DirtyCard marks the card containing a. The runtime's reference write
// barrier calls this for stores into tenured space so the scavenger can find
// old-to-young pointers, the Skyway receiver calls it for every card of a
// freshly absolutized input buffer (§4.3 "Interaction with GC"), and the
// collector calls it for a tenured object it leaves pointing young.
func (h *Heap) DirtyCard(a Addr) { h.cards[uint64(a)/CardSize] = cardDirty }

// DirtyRange marks every card overlapping [a, a+n).
func (h *Heap) DirtyRange(a Addr, n uint32) {
	for c := uint64(a) / CardSize; c <= (uint64(a)+uint64(n)-1)/CardSize; c++ {
		h.cards[c] = cardDirty
	}
}

// NextDirtyCard returns the address of the first dirty card overlapping
// [from, to) — the first byte the card covers, which may lie below from —
// or false when there is none. It reads the card table only, so a scan that
// steps from dirty card to dirty card costs the table's bytes plus the
// objects on dirty cards, however large the space behind it.
func (h *Heap) NextDirtyCard(from, to Addr) (Addr, bool) {
	if from >= to {
		return Null, false
	}
	lo := uint64(from) / CardSize
	i := bytes.IndexByte(h.cards[lo:(uint64(to)-1)/CardSize+1], cardDirty)
	if i < 0 {
		return Null, false
	}
	return Addr((lo + uint64(i)) * CardSize), true
}

// KeepCards marks every dirty card overlapping [a, a+n) as kept: a card
// cleaning found an object there still pointing young. A kept card still
// reads as dirty to RangeDirty, but no longer to NextDirtyCard, so the
// cleaning does not visit it twice.
func (h *Heap) KeepCards(a Addr, n uint32) {
	for c := uint64(a) / CardSize; c <= (uint64(a)+uint64(n)-1)/CardSize; c++ {
		if h.cards[c] == cardDirty {
			h.cards[c] = cardKept
		}
	}
}

// SettleCards ends a card cleaning over the ranges rs: every dirty card that
// was not kept becomes clean, and every kept card dirty again. All of rs is
// swept for the first step before any of it for the second, because a card
// can straddle two ranges.
func (h *Heap) SettleCards(rs []Region) {
	for _, r := range rs {
		h.replaceCards(r, cardDirty, cardClean)
	}
	for _, r := range rs {
		h.replaceCards(r, cardKept, cardDirty)
	}
}

// replaceCards sets every card overlapping [r.Start, r.End) that holds from
// to to.
func (h *Heap) replaceCards(r Region, from, to byte) {
	if r.Start >= r.End {
		return
	}
	cs := h.cards[uint64(r.Start)/CardSize : (uint64(r.End)-1)/CardSize+1]
	for {
		i := bytes.IndexByte(cs, from)
		if i < 0 {
			return
		}
		cs[i] = to
		cs = cs[i+1:]
	}
}

// RangeDirty reports whether any card overlapping [a, a+n) is dirty.
func (h *Heap) RangeDirty(a Addr, n uint32) bool {
	for c := uint64(a) / CardSize; c <= (uint64(a)+uint64(n)-1)/CardSize; c++ {
		if h.cards[c] != 0 {
			return true
		}
	}
	return false
}

// CleanCards clears every card overlapping [a, a+n).
func (h *Heap) CleanCards(a Addr, n uint64) {
	if n == 0 {
		return
	}
	clear(h.cards[uint64(a)/CardSize : (uint64(a)+n-1)/CardSize+1])
}
