package vm

import (
	"fmt"
	"math"

	"skyway/internal/heap"
	"skyway/internal/klass"
)

// Typed field and array accessors. Each access is one call: an exported
// accessor is a wrapper the compiler inlines at its call site, around one
// funnel — load or loadElem for a read, storePrim, storeElem, SetRef or
// ArraySetRef for a write. A funnel's managed branch is heap primitives,
// inlined, that follow no klass pointer: a field costs one load or store, an
// element one header read (klass word and length), one bounds check and one
// load. Its arena branch is one out-of-line call — loadArena, loadElemArena
// or the promotion in mutable — that resolves a tagged arena address against
// its off-heap region, or promotes an arena-resident object into the managed
// heap on its first mutation (copy-on-write). An access through heap.Null
// panics with heap.ErrNullDereference. Reference stores go through a
// card-table write barrier: a pointer written into tenured space (old
// generation or a Skyway input buffer) dirties the owner's card so the next
// scavenge can find old-to-young edges (§4.3).

// GetRef loads the reference field f of the object at a.
func (rt *Runtime) GetRef(a heap.Addr, f *klass.Field) heap.Addr {
	return heap.Addr(rt.load(a, f.Offset, klass.Ref))
}

// SetRef stores v into the reference field f of the object at a.
func (rt *Runtime) SetRef(a heap.Addr, f *klass.Field, v heap.Addr) {
	a = rt.mutable(a)
	rt.Heap.Store(a, f.Offset, klass.Ref, uint64(v))
	rt.refBarrier(a)
}

func (rt *Runtime) refBarrier(owner heap.Addr) {
	if rt.Heap.InOld(owner) || rt.Heap.InBuffers(owner) {
		rt.Heap.DirtyCard(owner)
	}
}

// storePrim stores a value whose kind is only known at run time but must be
// primitive; the typed setters route their dynamic-kind stores through this
// single checked funnel, which is also where arena objects promote.
func (rt *Runtime) storePrim(a heap.Addr, off uint32, kind klass.Kind, v uint64) {
	if kind == klass.Ref {
		panic("vm: storePrim on a reference slot; use SetRef/ArraySetRef")
	}
	a = rt.mutable(a)
	//skyway:allow writebarrier — kind is checked non-Ref above, so no reference is written
	rt.Heap.Store(a, off, kind, v)
}

// GetLong loads a 64-bit integer field.
func (rt *Runtime) GetLong(a heap.Addr, f *klass.Field) int64 {
	return int64(rt.load(a, f.Offset, f.Kind))
}

// SetLong stores a 64-bit integer field.
func (rt *Runtime) SetLong(a heap.Addr, f *klass.Field, v int64) {
	rt.storePrim(a, f.Offset, f.Kind, uint64(v))
}

// GetInt loads an integer field of any width, sign-extended.
func (rt *Runtime) GetInt(a heap.Addr, f *klass.Field) int64 {
	return signExtend(rt.load(a, f.Offset, f.Kind), f.Kind)
}

// SetInt stores an integer field of any width (truncating).
func (rt *Runtime) SetInt(a heap.Addr, f *klass.Field, v int64) {
	rt.storePrim(a, f.Offset, f.Kind, uint64(v))
}

// GetBool loads a boolean field.
func (rt *Runtime) GetBool(a heap.Addr, f *klass.Field) bool {
	return rt.load(a, f.Offset, klass.Bool) != 0
}

// SetBool stores a boolean field.
func (rt *Runtime) SetBool(a heap.Addr, f *klass.Field, v bool) {
	var raw uint64
	if v {
		raw = 1
	}
	rt.storePrim(a, f.Offset, klass.Bool, raw)
}

// GetDouble loads a float64 field.
func (rt *Runtime) GetDouble(a heap.Addr, f *klass.Field) float64 {
	return math.Float64frombits(rt.load(a, f.Offset, klass.Float64))
}

// SetDouble stores a float64 field.
func (rt *Runtime) SetDouble(a heap.Addr, f *klass.Field, v float64) {
	rt.storePrim(a, f.Offset, klass.Float64, math.Float64bits(v))
}

// GetRaw loads the raw bits of any field (for reference fields of arena
// objects, the tagged handle).
func (rt *Runtime) GetRaw(a heap.Addr, f *klass.Field) uint64 {
	return rt.load(a, f.Offset, f.Kind)
}

// SetRaw stores raw bits into any field, applying the write barrier for
// reference fields.
func (rt *Runtime) SetRaw(a heap.Addr, f *klass.Field, v uint64) {
	a = rt.mutable(a)
	rt.Heap.Store(a, f.Offset, f.Kind, v)
	if f.Kind == klass.Ref {
		rt.refBarrier(a)
	}
}

// --- arrays -------------------------------------------------------------------

// elemKind reads the header of the managed array at a — klass word and
// length, under one slab bounds check — checks i against the length and
// returns the element kind from the LID-indexed table. Handles never reach
// it: reads resolve them in loadElemArena, writes promote them in mutable
// first.
func (rt *Runtime) elemKind(a heap.Addr, i int) klass.Kind {
	lid, n := rt.Heap.ArrayHeader(a)
	if uint(i) >= uint(n) {
		panic(indexError{i, n})
	}
	return rt.elemKinds[lid]
}

// indexError is the panic value of an element access outside its array —
// Java's ArrayIndexOutOfBoundsException — formatted only when printed, which
// keeps elemKind inlinable.
type indexError struct{ i, n int }

func (e indexError) Error() string {
	return fmt.Sprintf("vm: array index %d out of bounds for length %d", e.i, e.n)
}

// loadElem is the element read funnel: the raw bits of element i, and the
// shift that sign-extends them for the array's element kind (signShift), so
// that ArrayGetLong stays inlinable.
func (rt *Runtime) loadElem(a heap.Addr, i int) (raw uint64, shift uint8) {
	if heap.IsArenaAddr(a) {
		return rt.loadElemArena(a, i)
	}
	kind := rt.elemKind(a, i)
	return rt.Heap.Load(a, rt.Heap.ElemOffset(kind, i), kind), signShift[kind]
}

// loadElemArena is loadElem's arena branch: one resolve, then an element of
// the promoted copy, a managed array, or of the image.
func (rt *Runtime) loadElemArena(a heap.Addr, i int) (raw uint64, shift uint8) {
	reg, k, img, p := rt.resolve(a)
	if p != heap.Null {
		return rt.loadElem(p, i)
	}
	n := heap.LoadBytes(img, rt.Heap.Layout().OffArrayLen(), klass.Int64)
	if i < 0 || uint64(i) >= n {
		panic(indexError{i, int(n)})
	}
	return loadImage(reg, img, rt.Heap.ElemOffset(k.Elem, i), k.Elem), signShift[k.Elem]
}

// signShift is, by kind, how far signExtend shifts raw bits up and back
// down: the signed integers narrower than a word fill their upper bits with
// the sign, every other kind keeps its raw bits. A table, not a switch, so
// that the accessors that sign-extend stay inlinable.
var signShift = [256]uint8{klass.Int8: 56, klass.Int16: 48, klass.Int32: 32}

// signExtend widens the raw bits of an integer of the given kind.
func signExtend(raw uint64, kind klass.Kind) int64 {
	return int64(raw<<signShift[kind]) >> signShift[kind]
}

// ArrayGetRef loads element i of a reference array.
func (rt *Runtime) ArrayGetRef(a heap.Addr, i int) heap.Addr {
	raw, _ := rt.loadElem(a, i)
	return heap.Addr(raw)
}

// ArraySetRef stores element i of a reference array.
func (rt *Runtime) ArraySetRef(a heap.Addr, i int, v heap.Addr) {
	a = rt.mutable(a)
	off := rt.Heap.ElemOffset(rt.elemKind(a, i), i)
	rt.Heap.Store(a, off, klass.Ref, uint64(v))
	rt.refBarrier(a)
}

// storeElem stores the raw bits of element i of a primitive array,
// promoting a handle first.
func (rt *Runtime) storeElem(a heap.Addr, i int, v uint64) {
	a = rt.mutable(a)
	kind := rt.elemKind(a, i)
	rt.storePrim(a, rt.Heap.ElemOffset(kind, i), kind, v)
}

// ArrayGetLong loads element i of an integer array, sign-extended.
func (rt *Runtime) ArrayGetLong(a heap.Addr, i int) int64 {
	raw, shift := rt.loadElem(a, i)
	return int64(raw<<shift) >> shift
}

// ArraySetLong stores element i of an integer array (truncating).
func (rt *Runtime) ArraySetLong(a heap.Addr, i int, v int64) { rt.storeElem(a, i, uint64(v)) }

// ArrayGetDouble loads element i of a double array.
func (rt *Runtime) ArrayGetDouble(a heap.Addr, i int) float64 {
	raw, _ := rt.loadElem(a, i)
	return math.Float64frombits(raw)
}

// ArraySetDouble stores element i of a double array.
func (rt *Runtime) ArraySetDouble(a heap.Addr, i int, v float64) {
	rt.storeElem(a, i, math.Float64bits(v))
}

// ArrayGetChar loads element i of a char array.
func (rt *Runtime) ArrayGetChar(a heap.Addr, i int) uint16 {
	raw, _ := rt.loadElem(a, i)
	return uint16(raw)
}

// ArraySetChar stores element i of a char array.
func (rt *Runtime) ArraySetChar(a heap.Addr, i int, v uint16) { rt.storeElem(a, i, uint64(v)) }

// ArrayLen returns the length of the array at a.
func (rt *Runtime) ArrayLen(a heap.Addr) int {
	if heap.IsArenaAddr(a) {
		_, _, img, p := rt.resolve(a)
		if p == heap.Null {
			return int(heap.LoadBytes(img, rt.Heap.Layout().OffArrayLen(), klass.Int64))
		}
		a = p
	}
	return rt.Heap.ArrayLen(a)
}

// --- bulk primitive-array access ------------------------------------------------

// kindSet is a set of element kinds, one bit each.
type kindSet uint16

const (
	integerKinds kindSet = 1<<klass.Int8 | 1<<klass.Int16 | 1<<klass.Int32 | 1<<klass.Int64
	charKind     kindSet = 1 << klass.Char
)

// elems resolves the array at a once, checks its element kind is one of want
// (primitive kinds only: a reference payload needs re-tagging and barriers)
// and returns the kind and the payload bytes: a view of the slab for a
// managed or promoted array, of the region's mapping for an arena one. A
// scavenge moves what the first aliases and a retirement unmaps the second,
// so the bulk accessors copy through the view before they return and never
// hand it out. A zero-length array yields an empty payload without touching
// the bytes after its header, which for the last object of a segment are not
// the region's.
func (rt *Runtime) elems(a heap.Addr, want kindSet) (klass.Kind, []byte) {
	var k *klass.Klass
	var img []byte
	if heap.IsArenaAddr(a) {
		_, k, img, a = rt.resolve(a)
	} else {
		k = rt.KlassAt(int32(rt.Heap.KlassWord(a)))
	}
	if !k.IsArray || want&(1<<k.Elem) == 0 {
		panic(fmt.Sprintf("vm: bulk access to a %s, not an array of the element kind asked for", k.Name))
	}
	if img == nil {
		size, _ := rt.shape(a, k)
		img = rt.Heap.ByteView(a, size)
	}
	hdr := rt.Heap.Layout().ArrayHeaderSize()
	n := heap.LoadBytes(img, rt.Heap.Layout().OffArrayLen(), klass.Int64)
	return k.Elem, img[hdr : uint64(hdr)+n*uint64(k.Elem.Size())]
}

// ArrayLongs copies every element of the integer array at a (byte[],
// short[], int[] or long[], sign-extended) into dst, growing it if it is too
// small, and returns dst[:ArrayLen(a)]. It reads managed arrays, arena
// handles and promoted handles alike, for one resolve instead of one per
// element, and the result is Go-owned memory: no scavenge or region
// retirement can invalidate it, while reading through a handle whose region
// is already retired panics as every accessor does.
func (rt *Runtime) ArrayLongs(a heap.Addr, dst []int64) []int64 {
	kind, b := rt.elems(a, integerKinds)
	n := len(b) / int(kind.Size())
	if cap(dst) < n {
		dst = make([]int64, n)
	}
	dst = dst[:n]
	heap.LoadInts(dst, b, kind)
	return dst
}

// ArrayPutLongs is ArrayLongs' mirror for filling a freshly allocated
// integer array: it stores src (truncating) as the array's len(src)
// elements, which must be all of them. A handle promotes, once.
func (rt *Runtime) ArrayPutLongs(a heap.Addr, src []int64) {
	kind, b := rt.elems(rt.mutable(a), integerKinds)
	if n := len(b) / int(kind.Size()); len(src) != n {
		panic(fmt.Sprintf("vm: ArrayPutLongs of %d elements into an array of %d", len(src), n))
	}
	heap.StoreInts(b, src, kind)
}
