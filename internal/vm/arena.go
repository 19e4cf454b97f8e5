package vm

import (
	"fmt"

	"skyway/internal/arena"
	"skyway/internal/fault"
	"skyway/internal/heap"
	"skyway/internal/klass"
)

// Arena routing: the lazy-absolutization half of the accessor layer.
//
// A tagged arena address (heap.IsArenaAddr) names an object that still lives
// in its received wire image inside an off-heap region — relativized
// references, global type ID in the klass word, untouched by the collector.
// Reads resolve through the region's bounds-checked segment table; reference
// loads re-tag the stored relative address instead of translating it, so
// following a pointer costs one compose, not a table rewrite. The first
// mutation promotes the object into the managed heap (copy-on-write), after
// which the region forwards every access to the promoted copy.

// resolve is the one place a tagged address becomes an object: one region
// lookup, one promotion probe, one segment search, the klass from the TID
// table. It returns the object's klass with either the managed address of
// its promoted copy (img nil) or its image in the region, cut to exactly the
// object's bytes (p Null) — so whatever a caller reads at an offset inside
// the image is inside the object, and a whole loop over an array's payload
// costs one resolve. The image is a view of the region's mapping: it dies
// with the region, so callers read through it and never hold it.
//
// It fails loudly: a handle that outlived its region panics naming the
// retired region, and an image that escapes its segment or names an unknown
// type can only be a forged or stale handle (decode-time validation proved
// every object fits its segment and loaded every class in the stream), which
// must not become an out-of-region read.
func (rt *Runtime) resolve(a heap.Addr) (reg *arena.Region, k *klass.Klass, img []byte, p heap.Addr) {
	reg = rt.Arena.MustRegion(heap.ArenaRegionOf(a))
	rel := heap.ArenaRelOf(a)
	if p = reg.PromotedAddr(rel); p != heap.Null {
		return reg, rt.KlassAt(int32(rt.Heap.KlassWord(p))), nil, p
	}
	img, err := reg.Tail(rel)
	if err != nil {
		panic(fmt.Sprintf("vm: %s: arena read escapes its segment: %v", rt.Name, err))
	}
	// The klass word still holds the wire's global type ID — the lazy
	// counterpart of absolutization's klass-word rewrite.
	tid := int32(uint32(heap.LoadBytes(img, klass.OffKlass, klass.Int64)))
	if k, err = rt.KlassByTID(tid); err != nil {
		panic(fmt.Sprintf("vm: %s: arena object %#x has unresolvable type ID %d: %v", rt.Name, uint64(a), tid, err))
	}
	// The segment tail is the room; a length word is read only when the
	// array header fits in it, and otherwise the zero stands in and fails too.
	var n uint64
	if k.IsArray && uint64(k.Size) <= uint64(len(img)) {
		n = heap.LoadBytes(img, rt.Heap.Layout().OffArrayLen(), klass.Int64)
	}
	size, _, ok := k.Extent(n, uint64(len(img)))
	if !ok {
		panic(fmt.Sprintf("vm: %s: arena read escapes its segment: %s of length %d at %#x", rt.Name, k.Name, n, uint64(a)))
	}
	return reg, k, img[:size:size], heap.Null
}

// load is the field read funnel shared by every getter: a managed address
// reads the word slab inline, a tagged one goes to loadArena.
func (rt *Runtime) load(a heap.Addr, off uint32, kind klass.Kind) uint64 {
	if heap.IsArenaAddr(a) {
		return rt.loadArena(a, off, kind)
	}
	return rt.Heap.Load(a, off, kind)
}

// loadArena is load's arena branch: the field of the promoted copy, or of
// the image with a reference slot re-tagged.
func (rt *Runtime) loadArena(a heap.Addr, off uint32, kind klass.Kind) uint64 {
	reg, _, img, p := rt.resolve(a)
	if p != heap.Null {
		return rt.Heap.Load(p, off, kind)
	}
	return loadImage(reg, img, off, kind)
}

// loadImage reads one field of a resolved arena image. A reference slot
// holds a relative address, which is re-tagged instead of translated, so
// following a pointer costs one compose, not a table rewrite.
func loadImage(reg *arena.Region, img []byte, off uint32, kind klass.Kind) uint64 {
	v := heap.LoadBytes(img, off, kind)
	if kind == klass.Ref && v != 0 {
		v = uint64(heap.ComposeArenaAddr(reg.ID(), v))
	}
	return v
}

// mutable returns a managed-heap address for a: a itself, inline, or for a
// handle the copy mustPromote gives its object on its first mutation.
func (rt *Runtime) mutable(a heap.Addr) heap.Addr {
	if heap.IsArenaAddr(a) {
		return rt.mustPromote(a)
	}
	return a
}

// mustPromote is mutable's arena branch. Promotion failure is fatal here for
// the same reason MustNew treats OOM as fatal: the typed setters have no
// error path, and a workload that needs to survive promotion failure uses
// Promote directly. It is kept out of line: inlined, it would put mutable,
// and every setter with it, over the inlining budget.
//
//go:noinline
func (rt *Runtime) mustPromote(a heap.Addr) heap.Addr {
	p, err := rt.Promote(a)
	if err != nil {
		panic(err)
	}
	return p
}

// Promote copies the arena-resident object at a into the managed heap,
// leaving the arena image untouched and forwarding all subsequent access to
// the copy. Idempotent: promoting an already-promoted object returns the
// existing copy. The copy is in exactly the state eager absolutization
// would have produced — local klass word, field updates applied (they were
// applied to the image at validation time) — except that its reference
// slots hold tagged arena addresses instead of chunk addresses: the rest of
// the graph stays lazy.
//
// The copy lands in the same pinned buffer space eager absolutization fills:
// non-moving, registered with the collector as a parsed root, freed when the
// region retires. Allocating there never triggers a collection, which keeps
// the typed setters GC-free for managed addresses — a write barrier is not a
// safepoint.
func (rt *Runtime) Promote(a heap.Addr) (heap.Addr, error) {
	if !heap.IsArenaAddr(a) {
		return a, nil
	}
	reg, k, img, p := rt.resolve(a)
	if p != heap.Null {
		return p, nil
	}
	if err := fault.Inject(fault.ArenaPromoteFail); err != nil {
		return heap.Null, fmt.Errorf("vm: %s: promote %#x: %w", rt.Name, uint64(a), err)
	}
	size := uint32(len(img))
	dst := rt.Heap.AllocBuffer(size)
	if dst == heap.Null {
		return heap.Null, fmt.Errorf("%w: %s: promoting %d bytes from arena region %d", ErrOOM, rt.Name, size, reg.ID())
	}
	h := rt.Heap
	h.CopyIn(dst, size, img)
	// The image mirrors an eager chunk byte for byte, so the promoted copy
	// needs the same single header fixup absolutization performs: global
	// type ID -> local klass ID. References are re-tagged rather than
	// translated — their targets still live in the region.
	h.SetKlassWord(dst, uint64(k.LID))
	// Walked by index rather than through a callback, which is a dynamic
	// call the staleaddr call graph must treat as allocating, and this funnel
	// sits under every typed setter.
	_, nrefs := rt.shape(dst, k)
	for i := 0; i < nrefs; i++ {
		off := k.RefSlot(i)
		if r := h.Load(dst, off, klass.Ref); r != 0 {
			//skyway:allow writebarrier — the stored value is a tagged arena address, not a young-generation pointer; the card table has nothing to find
			h.Store(dst, off, klass.Ref, uint64(heap.ComposeArenaAddr(reg.ID(), r)))
		}
	}
	pin := rt.GC.Pin(dst, size)
	pin.Parsed = true
	if winner := reg.SetPromoted(heap.ArenaRelOf(a), dst, func() { rt.GC.Unpin(pin) }); winner != dst {
		rt.GC.Unpin(pin)
		return winner, nil
	}
	return dst, nil
}
