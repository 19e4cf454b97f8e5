package heap

import (
	"encoding/binary"

	"skyway/internal/klass"
)

// Mark word layout (Figure 6's "mark" field):
//
//	bits 0..1   lock state
//	bit  2      GC mark (used by the full collector)
//	bit  3      hashed flag (the identity hash has been computed)
//	bits 4..7   object age (scavenge survival count)
//	bits 8..39  cached 32-bit identity hashcode
//	bits 62..63 forwarding tag during a scavenge
//
// Skyway copies the mark word verbatim (after resetting lock/GC/age bits),
// which is what preserves hashcodes across the transfer and lets hash-based
// structures be reused without rehashing (§1, §4.2 "Header Update").
const (
	markLockMask   = 0x3
	markGCBit      = 1 << 2
	markHashedBit  = 1 << 3
	markAgeShift   = 4
	markAgeMask    = uint64(0xF) << markAgeShift
	markHashShift  = 8
	markHashMask   = uint64(0xFFFFFFFF) << markHashShift
	markFwdTag     = uint64(3) << 62
	markFwdTagMask = uint64(3) << 62
)

// Mark returns the mark word of the object at a.
func (h *Heap) Mark(a Addr) uint64 { return h.LoadWord(a + klass.OffMark) }

// SetMark stores the mark word of the object at a.
func (h *Heap) SetMark(a Addr, m uint64) { h.StoreWord(a+klass.OffMark, m) }

// KlassWord returns the klass word of the object at a. In a live object it
// holds the klass LID; inside a Skyway buffer it holds the global type ID.
func (h *Heap) KlassWord(a Addr) uint64 { return h.LoadWord(notNull(a) + klass.OffKlass) }

// SetKlassWord stores the klass word of the object at a.
func (h *Heap) SetKlassWord(a Addr, v uint64) { h.StoreWord(a+klass.OffKlass, v) }

// AtomicBaddr atomically reads the Skyway baddr header word. Baddr words are
// shared between concurrent sender threads (which CAS them), so the heap
// offers no plain accessor for them. Panics when the layout has no baddr
// word.
func (h *Heap) AtomicBaddr(a Addr) uint64 {
	return h.AtomicLoadWord(a + Addr(h.layout.OffBaddr()))
}

// AtomicSetBaddr atomically stores the Skyway baddr header word.
func (h *Heap) AtomicSetBaddr(a Addr, v uint64) {
	h.AtomicStoreWord(a+Addr(h.layout.OffBaddr()), v)
}

// CasBaddr compare-and-swaps the baddr word; used when concurrent sender
// threads race to claim a shared object.
func (h *Heap) CasBaddr(a Addr, old, new uint64) bool {
	return h.CasWord(a+Addr(h.layout.OffBaddr()), old, new)
}

// ArrayLen returns the element count of the array object at a.
func (h *Heap) ArrayLen(a Addr) int {
	return int(h.LoadWord(notNull(a) + Addr(h.lenOff)))
}

// ArrayHeader returns the klass word and the element count of the array at
// a, both read under one bounds check of the slab: the header read of an
// element access.
func (h *Heap) ArrayHeader(a Addr) (klassWord uint64, n int) {
	b := h.mem[uint64(notNull(a))+klass.OffKlass : uint64(a)+uint64(h.lenOff)+klass.WordSize]
	return binary.LittleEndian.Uint64(b), int(binary.LittleEndian.Uint64(b[h.lenOff-klass.OffKlass:]))
}

// SetArrayLen stores the element count of the array object at a.
func (h *Heap) SetArrayLen(a Addr, n int) {
	h.StoreWord(a+Addr(h.layout.OffArrayLen()), uint64(n))
}

// ElemOffset returns the byte offset (from the object start) of element i of
// an array with the given element kind.
func (h *Heap) ElemOffset(k klass.Kind, i int) uint32 {
	return h.layout.ArrayHeaderSize() + uint32(i)*k.Size()
}

// Marked reports the GC mark bit.
func (h *Heap) Marked(a Addr) bool { return h.Mark(a)&markGCBit != 0 }

// SetMarked sets or clears the GC mark bit.
func (h *Heap) SetMarked(a Addr, v bool) {
	m := h.Mark(a)
	if v {
		m |= markGCBit
	} else {
		m &^= markGCBit
	}
	h.SetMark(a, m)
}

// Age returns the scavenge survival count of the object at a.
func (h *Heap) Age(a Addr) int { return int((h.Mark(a) & markAgeMask) >> markAgeShift) }

// SetAge stores the scavenge survival count.
func (h *Heap) SetAge(a Addr, age int) {
	if age > 15 {
		age = 15
	}
	h.SetMark(a, h.Mark(a)&^markAgeMask|uint64(age)<<markAgeShift)
}

// HashOf returns the cached identity hashcode and whether one has been
// computed for the object at a.
func (h *Heap) HashOf(a Addr) (uint32, bool) {
	m := h.Mark(a)
	return uint32((m & markHashMask) >> markHashShift), m&markHashedBit != 0
}

// SetHash caches an identity hashcode in the mark word.
func (h *Heap) SetHash(a Addr, hash uint32) {
	m := h.Mark(a)
	m = m&^markHashMask | uint64(hash)<<markHashShift | markHashedBit
	h.SetMark(a, m)
}

// MarkHash extracts the cached identity hashcode from a raw mark word —
// HashOf for object images that live outside the word slab (arena segments).
func MarkHash(m uint64) (uint32, bool) {
	return uint32((m & markHashMask) >> markHashShift), m&markHashedBit != 0
}

// MarkWithHash returns m with the identity hashcode cached — SetHash for
// out-of-slab object images.
func MarkWithHash(m uint64, hash uint32) uint64 {
	return m&^markHashMask | uint64(hash)<<markHashShift | markHashedBit
}

// ResetTransientMarkBits returns m with the lock, GC and age bits cleared
// while preserving the hashcode — Algorithm 2's RESETMARKBITS applied to the
// buffer clone's header.
func ResetTransientMarkBits(m uint64) uint64 {
	return m &^ (markLockMask | markGCBit | markAgeMask | markFwdTagMask)
}

// Forwarded reports whether the mark word at a carries a scavenge forwarding
// pointer, and if so returns the forwarded address.
func (h *Heap) Forwarded(a Addr) (Addr, bool) {
	m := h.Mark(a)
	if m&markFwdTagMask == markFwdTag {
		return Addr(m &^ markFwdTagMask), true
	}
	return Null, false
}

// SetForwarded overwrites the mark word at a with a forwarding pointer. The
// object's real header must already have been copied to the new location.
func (h *Heap) SetForwarded(a, to Addr) {
	h.SetMark(a, uint64(to)|markFwdTag)
}
