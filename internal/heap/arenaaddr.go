package heap

import "skyway/internal/klass"

// Arena handle encoding. Segments staged into an off-heap arena region stay
// relativized — their reference slots still hold the sender's baddr-relative
// addresses — and the runtime reads them through tagged addresses instead of
// absolutizing the whole chunk up front:
//
//	bit  63      arena tag (managed heap addresses never set it: the word
//	             slab tops out far below 2^63 bytes)
//	bits 40..62  arena region ID (23 bits)
//	bits  0..39  biased relative address within the region's shuffle stream,
//	             the same 5-byte field a baddr word carries
//
// A tagged address is NOT a heap.Addr in disguise: passing one to the word
// slab fails loudly in Heap.check (the index is astronomically out of
// range). The vm accessor layer routes tagged addresses to the arena and
// only there; the collector skips them entirely, which is the whole point —
// arena-resident object graphs cost the GC nothing.
const (
	// ArenaTag marks a tagged arena address.
	ArenaTag = uint64(1) << 63
	// ArenaRegionMask masks the region-ID field (after shifting).
	ArenaRegionMask  = (uint64(1) << 23) - 1
	arenaRegionShift = 40
)

// IsArenaAddr reports whether a is a tagged arena address.
func IsArenaAddr(a Addr) bool { return uint64(a)&ArenaTag != 0 }

// ComposeArenaAddr packs a region ID and a biased relative address into a
// tagged arena address. rel keeps the baddr bias: relative address 0 still
// means null, so a composed handle always has rel >= RelBias.
func ComposeArenaAddr(region uint32, rel uint64) Addr {
	return Addr(ArenaTag | uint64(region&uint32(ArenaRegionMask))<<arenaRegionShift | rel&BaddrRelMask)
}

// ArenaRegionOf extracts the region ID of a tagged arena address.
func ArenaRegionOf(a Addr) uint32 {
	return uint32(uint64(a) >> arenaRegionShift & ArenaRegionMask)
}

// ArenaRelOf extracts the biased relative address of a tagged arena address.
func ArenaRelOf(a Addr) uint64 { return uint64(a) & BaddrRelMask }

// --- bounds-checked byte-image accessors -----------------------------------
//
// LoadBytes/StoreBytes are Heap.Load/Heap.Store for an object image that
// lives outside the slab — an arena segment, a clone under construction —
// and go through the same loadKind/storeKind. Unlike the heap variants —
// whose bounds are implied by the slab — these take an explicit image and
// panic on any access that would leave it; the arena resolves a handle to
// exactly the bytes of one region segment, so an out-of-bounds offset can
// only mean a validation bug, never silent memory disclosure.

// LoadBytes reads a field of the given kind at byte offset off of the object
// image b, zero-extended to 64 bits.
func LoadBytes(b []byte, off uint32, k klass.Kind) uint64 {
	if uint64(off)+uint64(k.Size()) > uint64(len(b)) {
		panic("heap: arena field access out of bounds")
	}
	return loadKind(b[off:], k)
}

// StoreBytes writes a field of the given kind at byte offset off of the
// object image b.
func StoreBytes(b []byte, off uint32, k klass.Kind, v uint64) {
	if uint64(off)+uint64(k.Size()) > uint64(len(b)) {
		panic("heap: arena field access out of bounds")
	}
	storeKind(b[off:], k, v)
}
