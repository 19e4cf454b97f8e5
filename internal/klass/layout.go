package klass

import (
	"fmt"
	"math"
)

// Layout describes the object header geometry of one runtime. The paper's
// Figure 6 shows the Skyway layout on a 64-bit HotSpot: an 8-byte mark word
// (locks, hash, GC bits), an 8-byte klass word, and Skyway's extra 8-byte
// baddr word; arrays add an 8-byte length word. Heterogeneous clusters
// (§3.1) are modelled by runtimes with different Layout values.
type Layout struct {
	// Baddr records whether the runtime reserves the Skyway baddr header
	// word. A vanilla (non-Skyway) runtime sets it false; the §5.2 memory
	// overhead experiment compares peak heap under both settings.
	Baddr bool
}

// Header geometry in bytes. Word size is 8 throughout.
const (
	WordSize = 8

	// OffMark is the byte offset of the mark word in every object.
	OffMark = 0
	// OffKlass is the byte offset of the klass word.
	OffKlass = 8
)

// OffBaddr returns the byte offset of the baddr word, or -1 when the layout
// has no baddr word.
func (l Layout) OffBaddr() int {
	if l.Baddr {
		return 16
	}
	return -1
}

// HeaderSize returns the header size of a non-array object.
func (l Layout) HeaderSize() uint32 {
	if l.Baddr {
		return 24
	}
	return 16
}

// OffArrayLen returns the byte offset of the array length word.
func (l Layout) OffArrayLen() uint32 { return l.HeaderSize() }

// ArrayHeaderSize returns the header size of an array object (header plus
// the length word).
func (l Layout) ArrayHeaderSize() uint32 { return l.HeaderSize() + WordSize }

// Field is a resolved instance field with its byte offset from the start of
// the object under a particular Layout.
type Field struct {
	Name       string
	Kind       Kind
	Class      string // static type of a Ref field
	DeclaredBy string // class that declared the field
	Offset     uint32 // byte offset from object start
	Transient  bool   // skipped by conventional serializers
}

// Klass is a loaded class in one runtime — the paper's "klass" meta object.
// It carries the resolved field layout, the local ID (its position in the
// runtime's klass table, standing in for the meta object's address) and the
// cluster-global type ID assigned by the registry (§4.1).
type Klass struct {
	Name  string
	Super *Klass

	// Fields lists every instance field, inherited first, in layout order.
	Fields []Field
	// RefOffsets caches the byte offsets of all reference fields; the
	// Skyway writer's hot loop (Algorithm 2 lines 15-27) iterates these.
	RefOffsets []uint32
	// fieldsByName supports the reflective baselines' per-field lookups.
	fieldsByName map[string]*Field

	// Size is the padded instance size in bytes including the header.
	// For array klasses it is the array header size; element storage is
	// added per instance.
	Size uint32
	// HeaderBytes and PayloadBytes are the transfer plan's per-klass byte
	// composition, fixed at resolve time so the Skyway writer never
	// recomputes them per object: the header size (including the length word
	// of an array) and the unpadded field data of one instance. An array's
	// payload depends on its length and is left 0.
	HeaderBytes  uint32
	PayloadBytes uint32

	IsArray   bool
	Elem      Kind   // element kind, for array klasses
	ElemClass string // element class, for Ref-element array klasses

	// LID is the index of this klass in its runtime's klass table. It is
	// the value stored in live objects' klass words, standing in for the
	// meta object pointer of a real JVM.
	LID int32
	// TID is the cluster-global type ID from the registry, or -1 when the
	// runtime is not attached to a registry.
	TID int32
}

// FieldByName returns the resolved field with the given name, or nil. The
// reflective serializer baselines go through this (string-keyed) lookup for
// every field of every object, reproducing the reflection cost the paper
// measures in §2.
func (k *Klass) FieldByName(name string) *Field { return k.fieldsByName[name] }

// ElemSize returns the element size of an array klass.
func (k *Klass) ElemSize() uint32 {
	if !k.IsArray {
		return 0
	}
	return k.Elem.Size()
}

// Pad rounds n up to the next multiple of the word size, mirroring object
// padding on a 64-bit JVM.
func Pad(n uint32) uint32 { return (n + WordSize - 1) &^ (WordSize - 1) }

// ResolveLayout computes the resolved field layout of def under layout l.
// super must be the already-resolved superclass klass (nil for roots).
// Fields are packed HotSpot-style: inherited fields keep their offsets; new
// fields are appended largest-first so that alignment gaps stay small, and
// the instance size is padded to a word multiple.
func ResolveLayout(def *ClassDef, super *Klass, l Layout) (*Klass, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	k := &Klass{
		Name:  def.Name,
		Super: super,
		TID:   -1,
	}
	next := l.HeaderSize()
	if super != nil {
		if super.IsArray {
			return nil, fmt.Errorf("klass: %s: cannot extend array class %s", def.Name, super.Name)
		}
		k.Fields = append(k.Fields, super.Fields...)
		next = super.Size // start after the (padded) superclass suffix
	}

	// Stable largest-first packing: indices sorted by descending size,
	// ties broken by declaration order so layout is deterministic.
	order := make([]int, len(def.Fields))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := def.Fields[order[j-1]], def.Fields[order[j]]
			if a.Kind.Size() < b.Kind.Size() {
				order[j-1], order[j] = order[j], order[j-1]
			} else {
				break
			}
		}
	}
	for _, idx := range order {
		fd := def.Fields[idx]
		sz := fd.Kind.Size()
		off := align(next, sz)
		k.Fields = append(k.Fields, Field{
			Name:       fd.Name,
			Kind:       fd.Kind,
			Class:      fd.Class,
			DeclaredBy: def.Name,
			Offset:     off,
			Transient:  fd.Transient,
		})
		next = off + sz
	}
	k.Size = Pad(next)
	k.HeaderBytes = l.HeaderSize()

	k.fieldsByName = make(map[string]*Field, len(k.Fields))
	for i := range k.Fields {
		f := &k.Fields[i]
		// Subclass fields shadow superclass fields of the same name,
		// matching Java's innermost-wins resolution.
		k.fieldsByName[f.Name] = f
		k.PayloadBytes += f.Kind.Size()
		if f.Kind == Ref {
			k.RefOffsets = append(k.RefOffsets, f.Offset)
		}
	}
	return k, nil
}

// ResolveArray builds the klass for an array type under layout l.
func ResolveArray(name string, l Layout) (*Klass, error) {
	elem, elemClass, ok := ParseArrayName(name)
	if !ok {
		return nil, fmt.Errorf("klass: %s is not an array class name", name)
	}
	return &Klass{
		Name:      name,
		IsArray:   true,
		Elem:      elem,
		ElemClass: elemClass,
		Size:      l.ArrayHeaderSize(),

		HeaderBytes: l.ArrayHeaderSize(),
		TID:         -1,
	}, nil
}

// Extent is the one answer to "what is an instance of k": its padded size in
// bytes and how many reference slots (RefSlot) it has. n is the instance's
// array-length word exactly as read — from a heap object, a wire image or a
// compact record — and is ignored for a non-array; room is how many bytes
// the instance may occupy (what is left of its chunk, segment or slab). ok
// is false, with a zero size and no slots, when the padded instance does not
// fit in room or in the 32 bits every size is carried in. The arithmetic is
// 64 bits wide, so a length forged to wrap a 32-bit product fails here
// instead of yielding a small size with a huge slot count.
func (k *Klass) Extent(n, room uint64) (size uint32, nrefs int, ok bool) {
	end := uint64(k.Size)
	nrefs = len(k.RefOffsets)
	if k.IsArray {
		// An element is at least a byte, so an array this long already fits
		// no 32-bit size; clamping keeps the product below inside 64 bits.
		n = min(n, math.MaxUint32)
		end = (end + n*uint64(k.Elem.Size()) + WordSize - 1) &^ (WordSize - 1)
		if k.Elem == Ref {
			nrefs = int(n)
		}
	}
	if end > min(room, math.MaxUint32) {
		return 0, 0, false
	}
	return uint32(end), nrefs, true
}

// RefSlot returns the byte offset of the i-th of the nrefs reference slots
// Extent reported: an element of a reference array (whose Size is its header
// size), or an entry of the klass's ref-slot table.
func (k *Klass) RefSlot(i int) uint32 {
	if k.IsArray {
		return k.Size + uint32(i)*WordSize
	}
	return k.RefOffsets[i]
}

func align(off, sz uint32) uint32 {
	if sz == 0 {
		return off
	}
	return (off + sz - 1) &^ (sz - 1)
}
