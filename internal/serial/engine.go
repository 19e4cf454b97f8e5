package serial

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"

	"skyway/internal/gc"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/vm"
)

// TypeRep selects how a codec represents object types on the wire — the
// axis §1 problem (2) is about.
type TypeRep uint8

const (
	// TypeFullDescriptor writes a Java-serializer-style class descriptor
	// the first time a class appears in a stream: class name, every field
	// name with its signature, and the full superclass chain; later
	// occurrences use a descriptor back reference. Spark-style usage
	// opens many short streams, so descriptors recur per batch.
	TypeFullDescriptor TypeRep = iota
	// TypeNameString writes the class name string with every object —
	// the worst case the paper attributes 50-byte outputs for 1-byte
	// fields to.
	TypeNameString
	// TypeRegisteredID writes a varint ID from a manual Registration
	// table (Kryo, Colfer, Protostuff).
	TypeRegisteredID
)

// FieldAccess selects how a codec reads and writes object fields — the
// §1 problem (1) axis.
type FieldAccess uint8

const (
	// AccessReflective resolves every field by name through the klass's
	// string-keyed lookup for every object, like java.io's reflective
	// Reflection.getField/setField path.
	AccessReflective FieldAccess = iota
	// AccessCached iterates a precomputed accessor list (Kryo's
	// FieldSerializer after caching Field objects).
	AccessCached
	// AccessGenerated behaves like hand-written per-class functions:
	// accessor list plus bulk word copies for primitive array payloads
	// (Kryo-manual, Colfer's generated code, Protostuff schemas).
	AccessGenerated
)

// Strategy configures the serialization engine to mimic one library.
type Strategy struct {
	LibName string
	Type    TypeRep
	Access  FieldAccess
	// Varint zig-zag encodes integers (Kryo/Colfer/Protostuff); fixed
	// width otherwise (Java).
	Varint bool
	// RehashOnRead rebuilds hash-based structures after deserialization,
	// which general-purpose serializers must do because identity hashes
	// are not preserved (§1, §2.1).
	RehashOnRead bool
	// Reg is required when Type == TypeRegisteredID.
	Reg *Registration
}

// NewCodec builds a Codec from a strategy.
func NewCodec(s Strategy) Codec {
	if s.Type == TypeRegisteredID && s.Reg == nil {
		panic("serial: " + s.LibName + ": registered-ID codec without a Registration")
	}
	return &engineCodec{s: s}
}

type engineCodec struct{ s Strategy }

func (c *engineCodec) Name() string { return c.s.LibName }

func (c *engineCodec) NewEncoder(rt *vm.Runtime, w io.Writer) Encoder {
	return &engineEncoder{
		s:       c.s,
		rt:      rt,
		w:       bufio.NewWriterSize(w, 8<<10),
		handles: make(map[heap.Addr]uint64),
		descs:   make(map[int32]uint64),
	}
}

func (c *engineCodec) NewDecoder(rt *vm.Runtime, r io.Reader) Decoder {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 8<<10)
	}
	return &engineDecoder{
		s:     c.s,
		rt:    rt,
		r:     br,
		tab:   rt.GC.NewRoots(),
		descs: make(map[uint64]*klass.Klass),
	}
}

// Wire tags.
const (
	tagNull    = 0
	tagBackref = 1
	tagObject  = 2

	typeTagDesc    = 0 // inline descriptor follows
	typeTagDescRef = 1 // back reference to an earlier descriptor
)

// --- encoder -----------------------------------------------------------------

type engineEncoder struct {
	s  Strategy
	rt *vm.Runtime
	w  *bufio.Writer

	handles    map[heap.Addr]uint64
	nextHandle uint64
	descs      map[int32]uint64 // klass LID -> descriptor handle
	nextDesc   uint64

	scratch [binary.MaxVarintLen64]byte
}

func (e *engineEncoder) Flush() error  { return e.w.Flush() }
func (e *engineEncoder) u8(v byte)     { e.w.WriteByte(v) }
func (e *engineEncoder) uvar(v uint64) { e.w.Write(e.scratch[:binary.PutUvarint(e.scratch[:], v)]) }

func (e *engineEncoder) str(s string) {
	e.uvar(uint64(len(s)))
	e.w.WriteString(s)
}

func (e *engineEncoder) fixed(v uint64, size uint32) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.w.Write(b[8-size:])
}

// Write serializes the graph rooted at root. Back-reference handles are
// scoped to one root graph (Kryo's per-writeObject reset); class
// descriptors persist for the life of the stream.
func (e *engineEncoder) Write(root heap.Addr) error {
	clear(e.handles)
	e.nextHandle = 0
	return e.writeRef(root)
}

// WriteBatch implements Encoder.
func (e *engineEncoder) WriteBatch(roots []heap.Addr) error {
	return WriteWindowed(e.rt, roots, e.Write)
}

func (e *engineEncoder) writeRef(o heap.Addr) error {
	if o == heap.Null {
		e.u8(tagNull)
		return nil
	}
	if h, ok := e.handles[o]; ok {
		e.u8(tagBackref)
		e.uvar(h)
		return nil
	}
	e.u8(tagObject)
	e.handles[o] = e.nextHandle
	e.nextHandle++

	rt := e.rt
	k := rt.KlassOf(o)
	if err := e.writeType(k); err != nil {
		return err
	}
	if k.IsArray {
		n := rt.Heap.ArrayLen(o)
		e.uvar(uint64(n))
		if k.Elem == klass.Ref {
			for i := 0; i < n; i++ {
				if err := e.writeRef(rt.ArrayGetRef(o, i)); err != nil {
					return err
				}
			}
			return nil
		}
		return e.writePrimArray(o, k, n)
	}
	return e.writeFields(o, k)
}

func (e *engineEncoder) writePrimArray(o heap.Addr, k *klass.Klass, n int) error {
	es := k.ElemSize()
	base := e.rt.Heap.Layout().ArrayHeaderSize()
	if e.s.Access == AccessGenerated && !e.s.Varint {
		// Bulk copy path of schema-compiled serializers: the array bytes go
		// straight from the slab into the stream writer.
		if total := uint32(n) * es; total > 0 {
			e.w.Write(e.rt.Heap.ByteView(o.Add(base), klass.Pad(total))[:total])
		}
		return nil
	}
	for i := 0; i < n; i++ {
		v := e.rt.Heap.Load(o, base+uint32(i)*es, k.Elem)
		e.writePrim(v, k.Elem)
	}
	return nil
}

func (e *engineEncoder) writePrim(raw uint64, kind klass.Kind) {
	if e.s.Varint {
		switch kind {
		case klass.Int32:
			e.uvar(zigzag(int64(int32(raw))))
			return
		case klass.Int64:
			e.uvar(zigzag(int64(raw)))
			return
		case klass.Int16:
			e.uvar(zigzag(int64(int16(raw))))
			return
		}
	}
	e.fixed(raw, kind.Size())
}

func (e *engineEncoder) writeFields(o heap.Addr, k *klass.Klass) error {
	switch e.s.Access {
	case AccessReflective:
		// Resolve every field through the name-keyed reflective lookup,
		// exactly the per-object cost §1 problem (1) describes.
		for i := range k.Fields {
			if k.Fields[i].Transient {
				continue
			}
			f := k.FieldByName(k.Fields[i].Name)
			if f == nil {
				return fmt.Errorf("serial: reflective lookup of %s.%s failed", k.Name, k.Fields[i].Name)
			}
			if err := e.writeFieldValue(o, f); err != nil {
				return err
			}
		}
	default:
		for i := range k.Fields {
			if k.Fields[i].Transient {
				continue
			}
			if err := e.writeFieldValue(o, &k.Fields[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *engineEncoder) writeFieldValue(o heap.Addr, f *klass.Field) error {
	if f.Kind == klass.Ref {
		return e.writeRef(e.rt.GetRef(o, f))
	}
	raw := e.rt.Heap.Load(o, f.Offset, f.Kind)
	if e.s.Access == AccessReflective {
		// Reflective Field.get boxes the primitive.
		boxField(raw)
	}
	e.writePrim(raw, f.Kind)
	return nil
}

func (e *engineEncoder) writeType(k *klass.Klass) error {
	switch e.s.Type {
	case TypeRegisteredID:
		id, ok := e.s.Reg.IDOf(k.Name)
		if !ok {
			return fmt.Errorf("serial: %s: class %s is not registered", e.s.LibName, k.Name)
		}
		e.uvar(uint64(id))
		return nil
	case TypeNameString:
		e.str(k.Name)
		return nil
	default: // TypeFullDescriptor
		if h, ok := e.descs[k.LID]; ok {
			e.u8(typeTagDescRef)
			e.uvar(h)
			return nil
		}
		e.u8(typeTagDesc)
		e.descs[k.LID] = e.nextDesc
		e.nextDesc++
		e.writeDescriptor(k)
		return nil
	}
}

// writeDescriptor emits the Java-style class description: the class name,
// every declared field's name and signature, and recursively the entire
// superclass chain down to the root — the metadata §2.2 blames for the Java
// serializer's read I/O blow-up.
func (e *engineEncoder) writeDescriptor(k *klass.Klass) {
	e.str(k.Name)
	if k.IsArray {
		e.u8(1)
		e.u8(byte(k.Elem))
		e.str(k.ElemClass)
		return
	}
	e.u8(0)
	own := 0
	for i := range k.Fields {
		if k.Fields[i].DeclaredBy == k.Name && !k.Fields[i].Transient {
			own++
		}
	}
	e.uvar(uint64(own))
	for i := range k.Fields {
		f := &k.Fields[i]
		if f.DeclaredBy != k.Name || f.Transient {
			continue
		}
		e.str(f.Name)
		e.u8(byte(f.Kind))
		if f.Kind == klass.Ref {
			e.str(f.Class)
		}
	}
	if k.Super != nil {
		e.u8(1)
		e.writeDescriptor(k.Super)
	} else {
		e.u8(0)
	}
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// boxSink keeps boxed field values reachable so the allocations below are
// real. JVM reflective field access boxes every primitive (Integer.valueOf
// and friends) and that garbage is a large share of reflection's cost; the
// reflective baselines reproduce it with one true allocation per field.
// Atomic because encoders for different executors may box concurrently.
var boxSink atomic.Pointer[uint64]

func boxField(v uint64) {
	b := new(uint64)
	*b = v
	boxSink.Store(b)
}

// --- decoder -----------------------------------------------------------------

type engineDecoder struct {
	s  Strategy
	rt *vm.Runtime
	r  *bufio.Reader

	// tab roots every object of the root graph being read: slot i is the
	// wire's back-reference index i, so the table is the back-reference
	// table too. It is emptied at the end of each Read.
	tab      *gc.Roots
	descs    map[uint64]*klass.Klass
	nextDesc uint64
	rehash   []int // slots of completed hash maps awaiting rehash
}

// Read reconstructs one root graph. All intermediate objects are held in
// the root table so allocation-triggered collections cannot invalidate them;
// the table is emptied before returning.
func (d *engineDecoder) Read() (heap.Addr, error) {
	if _, err := d.r.Peek(1); err != nil {
		return heap.Null, err // io.EOF at stream end
	}
	defer d.tab.Release()
	root, err := d.readRef()
	if err != nil {
		return heap.Null, err
	}
	// Rebuild hash structures whose key hashes changed (fresh identity
	// hashes on this runtime) — the receiver-side rehashing cost Skyway
	// eliminates.
	if d.s.RehashOnRead {
		for _, m := range d.rehash {
			if err := d.rt.HashMapRehash(d.tab.At(m)); err != nil {
				return heap.Null, err
			}
		}
	}
	d.rehash = d.rehash[:0]
	if root == nullSlot {
		return heap.Null, nil
	}
	return d.tab.At(root), nil
}

// nullSlot is readRef's result for a null reference.
const nullSlot = -1

func (d *engineDecoder) u8() (byte, error) { return d.r.ReadByte() }

func (d *engineDecoder) uvar() (uint64, error) { return binary.ReadUvarint(d.r) }

func (d *engineDecoder) str() (string, error) {
	n, err := d.uvar()
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("serial: implausible string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func (d *engineDecoder) fixed(size uint32) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(d.r, b[8-size:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b[:]), nil
}

func (d *engineDecoder) readPrim(kind klass.Kind) (uint64, error) {
	if d.s.Varint {
		switch kind {
		case klass.Int16, klass.Int32, klass.Int64:
			u, err := d.uvar()
			if err != nil {
				return 0, err
			}
			return uint64(unzigzag(u)), nil
		}
	}
	return d.fixed(kind.Size())
}

// readRef returns the root-table slot of the decoded object, or nullSlot.
func (d *engineDecoder) readRef() (int, error) {
	tag, err := d.u8()
	if err != nil {
		return nullSlot, err
	}
	switch tag {
	case tagNull:
		return nullSlot, nil
	case tagBackref:
		h, err := d.uvar()
		if err != nil {
			return nullSlot, err
		}
		if h >= uint64(d.tab.Len()) {
			return nullSlot, fmt.Errorf("serial: bad back reference %d", h)
		}
		return int(h), nil
	case tagObject:
		return d.readObject()
	default:
		return nullSlot, fmt.Errorf("serial: bad tag %d", tag)
	}
}

func (d *engineDecoder) readObject() (int, error) {
	rt := d.rt
	k, err := d.readType()
	if err != nil {
		return nullSlot, err
	}
	if k.IsArray {
		n64, err := d.uvar()
		if err != nil {
			return nullSlot, err
		}
		if n64 > 1<<28 {
			return nullSlot, fmt.Errorf("serial: implausible array length %d", n64)
		}
		n := int(n64)
		arr, err := rt.NewArray(k, n)
		if err != nil {
			return nullSlot, err
		}
		o := d.tab.Append(arr)
		if k.Elem == klass.Ref {
			for i := 0; i < n; i++ {
				c, err := d.readRef()
				if err != nil {
					return nullSlot, err
				}
				if c != nullSlot {
					rt.ArraySetRef(d.tab.At(o), i, d.tab.At(c))
				}
			}
			return o, nil
		}
		if err := d.readPrimArray(o, k, n); err != nil {
			return nullSlot, err
		}
		return o, nil
	}

	obj, err := rt.New(k)
	if err != nil {
		return nullSlot, err
	}
	o := d.tab.Append(obj)
	if err := d.readFields(o, k); err != nil {
		return nullSlot, err
	}
	if k.Name == vm.HashMapClass && d.s.RehashOnRead {
		d.rehash = append(d.rehash, o)
	}
	return o, nil
}

// readPrimArray fills the primitive array in slot o.
func (d *engineDecoder) readPrimArray(o int, k *klass.Klass, n int) error {
	es := k.ElemSize()
	base := d.rt.Heap.Layout().ArrayHeaderSize()
	if d.s.Access == AccessGenerated && !d.s.Varint {
		total := uint32(n) * es
		if total == 0 {
			return nil
		}
		// Wire bytes land straight in the slab. The pad tail of the last
		// word is zeroed explicitly: compact-mode re-encoding would
		// otherwise leak stale pad bytes onto the wire.
		v := d.rt.Heap.ByteView(d.tab.At(o).Add(base), klass.Pad(total))
		if _, err := io.ReadFull(d.r, v[:total]); err != nil {
			return err
		}
		clear(v[total:])
		return nil
	}
	for i := 0; i < n; i++ {
		v, err := d.readPrim(k.Elem)
		if err != nil {
			return err
		}
		d.rt.Heap.StorePrim(d.tab.At(o), base+uint32(i)*es, k.Elem, v)
	}
	return nil
}

// readFields fills the fields of the instance in slot o.
func (d *engineDecoder) readFields(o int, k *klass.Klass) error {
	for i := range k.Fields {
		if k.Fields[i].Transient {
			// Not on the wire; stays zero (Java's transient default).
			continue
		}
		var f *klass.Field
		if d.s.Access == AccessReflective {
			// Reflective set-by-name on the receiver (§1 problem 1).
			f = k.FieldByName(k.Fields[i].Name)
			if f == nil {
				return fmt.Errorf("serial: reflective lookup of %s.%s failed", k.Name, k.Fields[i].Name)
			}
		} else {
			f = &k.Fields[i]
		}
		if f.Kind == klass.Ref {
			c, err := d.readRef()
			if err != nil {
				return err
			}
			if c != nullSlot {
				d.rt.SetRef(d.tab.At(o), f, d.tab.At(c))
			}
			continue
		}
		v, err := d.readPrim(f.Kind)
		if err != nil {
			return err
		}
		if d.s.Access == AccessReflective {
			// Reflective Field.set unboxes a boxed primitive.
			boxField(v)
		}
		d.rt.SetRaw(d.tab.At(o), f, v)
	}
	return nil
}

func (d *engineDecoder) readType() (*klass.Klass, error) {
	switch d.s.Type {
	case TypeRegisteredID:
		id, err := d.uvar()
		if err != nil {
			return nil, err
		}
		name, ok := d.s.Reg.NameOf(uint32(id))
		if !ok {
			return nil, fmt.Errorf("serial: %s: unregistered type ID %d", d.s.LibName, id)
		}
		return d.rt.LoadClass(name)
	case TypeNameString:
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		// Resolve the type from its string — the per-object reflective
		// class lookup of §1 problem (2).
		return d.rt.LoadClass(name)
	default: // TypeFullDescriptor
		tag, err := d.u8()
		if err != nil {
			return nil, err
		}
		if tag == typeTagDescRef {
			h, err := d.uvar()
			if err != nil {
				return nil, err
			}
			k, ok := d.descs[h]
			if !ok {
				return nil, fmt.Errorf("serial: bad descriptor reference %d", h)
			}
			return k, nil
		}
		k, err := d.readDescriptor()
		if err != nil {
			return nil, err
		}
		d.descs[d.nextDesc] = k
		d.nextDesc++
		return k, nil
	}
}

// readDescriptor consumes a full class description and resolves it against
// the locally loaded class, verifying field-by-field compatibility (the
// paper's same-class-version assumption, §3.1).
func (d *engineDecoder) readDescriptor() (*klass.Klass, error) {
	name, err := d.str()
	if err != nil {
		return nil, err
	}
	k, err := d.rt.LoadClass(name)
	if err != nil {
		return nil, err
	}
	isArr, err := d.u8()
	if err != nil {
		return nil, err
	}
	if isArr == 1 {
		if _, err := d.u8(); err != nil { // elem kind
			return nil, err
		}
		if _, err := d.str(); err != nil { // elem class
			return nil, err
		}
		return k, nil
	}
	cur := k
	for {
		n, err := d.uvar()
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < n; i++ {
			fname, err := d.str()
			if err != nil {
				return nil, err
			}
			kindB, err := d.u8()
			if err != nil {
				return nil, err
			}
			if klass.Kind(kindB) == klass.Ref {
				if _, err := d.str(); err != nil {
					return nil, err
				}
			}
			f := cur.FieldByName(fname)
			if f == nil || f.Kind != klass.Kind(kindB) {
				return nil, fmt.Errorf("serial: class %s: incompatible field %s", cur.Name, fname)
			}
		}
		more, err := d.u8()
		if err != nil {
			return nil, err
		}
		if more == 0 {
			return k, nil
		}
		superName, err := d.str()
		if err != nil {
			return nil, err
		}
		cur = d.rt.KlassByName(superName)
		if cur == nil {
			if cur, err = d.rt.LoadClass(superName); err != nil {
				return nil, err
			}
		}
		// Consume the super descriptor's array flag (always 0: a
		// superclass is never an array type).
		if flag, err := d.u8(); err != nil {
			return nil, err
		} else if flag != 0 {
			return nil, fmt.Errorf("serial: array superclass in descriptor of %s", name)
		}
	}
}
