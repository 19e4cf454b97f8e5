package batch

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"skyway/internal/gc"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/serial"
	"skyway/internal/vm"
)

// TupleCodec is Flink's built-in serializer model: the tuple type of every
// exchange is known at plan time, so the wire format carries no type
// information at all — fields are written in schema order with fixed
// widths, strings as length-prefixed UTF-16 code units. Deserialization is
// lazy: only the fields the downstream operators access are materialized
// into the received tuple; the rest are parsed and skipped (§5.3 "Flink
// does not deserialize all fields of a row upon receiving it").
type TupleCodec struct {
	class  string
	needed map[string]bool // nil = materialize everything
}

// NewTupleCodec builds the serializer for one tuple class; needed lists the
// fields to materialize on receive (empty = all).
func NewTupleCodec(class string, needed []string) *TupleCodec {
	c := &TupleCodec{class: class}
	if len(needed) > 0 {
		c.needed = make(map[string]bool, len(needed))
		for _, f := range needed {
			c.needed[f] = true
		}
	}
	return c
}

// Name implements serial.Codec.
func (c *TupleCodec) Name() string { return "flink-builtin" }

// NewEncoder implements serial.Codec.
func (c *TupleCodec) NewEncoder(rt *vm.Runtime, w io.Writer) serial.Encoder {
	return &tupleEncoder{c: c, rt: rt, bw: bufio.NewWriterSize(w, 32<<10)}
}

// NewDecoder implements serial.Codec.
func (c *TupleCodec) NewDecoder(rt *vm.Runtime, r io.Reader) serial.Decoder {
	return &tupleDecoder{c: c, rt: rt, r: bufio.NewReaderSize(r, 32<<10)}
}

const nullString = uint32(0xFFFFFFFF)

// maxStringUnits caps the decoded length of a single string field. The wire
// format carries no type information, so a corrupt or adversarial stream can
// place any u32 where a length belongs; without a cap the decoder would try
// to allocate (and Discard) gigabytes before any later check fires. 16M
// UTF-16 code units (32 MiB payload) is far beyond any real tuple field.
const maxStringUnits = 1 << 24

type tupleEncoder struct {
	c  *TupleCodec
	rt *vm.Runtime
	bw *bufio.Writer
	k  *klass.Klass
}

func (e *tupleEncoder) Flush() error { return e.bw.Flush() }

// Write implements serial.Encoder: one schema-ordered record, no type tag.
func (e *tupleEncoder) Write(row heap.Addr) error {
	if e.k == nil {
		k, err := e.rt.LoadClass(e.c.class)
		if err != nil {
			return err
		}
		e.k = k
	}
	if got := e.rt.KlassOf(row); got != e.k {
		return fmt.Errorf("batch: tuple serializer for %s fed a %s", e.k.Name, got.Name)
	}
	var scratch [8]byte
	for i := range e.k.Fields {
		f := &e.k.Fields[i]
		if f.Kind == klass.Ref {
			if f.Class != vm.StringClass {
				return fmt.Errorf("batch: tuple field %s.%s: only String references are supported by the built-in serializer", e.k.Name, f.Name)
			}
			s := e.rt.GetRef(row, f)
			if s == heap.Null {
				binary.BigEndian.PutUint32(scratch[:4], nullString)
				e.bw.Write(scratch[:4])
				continue
			}
			// Write the backing char[] directly: length + UTF-16
			// code units.
			val := e.rt.GetRef(s, e.rt.KlassOf(s).FieldByName("value"))
			n := e.rt.ArrayLen(val)
			binary.BigEndian.PutUint32(scratch[:4], uint32(n))
			e.bw.Write(scratch[:4])
			for j := 0; j < n; j++ {
				binary.BigEndian.PutUint16(scratch[:2], e.rt.ArrayGetChar(val, j))
				e.bw.Write(scratch[:2])
			}
			continue
		}
		raw := e.rt.Heap.Load(row, f.Offset, f.Kind)
		sz := f.Kind.Size()
		switch sz {
		case 1:
			scratch[0] = byte(raw)
		case 2:
			binary.BigEndian.PutUint16(scratch[:2], uint16(raw))
		case 4:
			binary.BigEndian.PutUint32(scratch[:4], uint32(raw))
		default:
			binary.BigEndian.PutUint64(scratch[:], raw)
		}
		e.bw.Write(scratch[:sz])
	}
	return nil
}

// WriteBatch implements serial.Encoder.
func (e *tupleEncoder) WriteBatch(rows []heap.Addr) error {
	return serial.WriteWindowed(e.rt, rows, e.Write)
}

type tupleDecoder struct {
	c  *TupleCodec
	rt *vm.Runtime
	r  *bufio.Reader
	k  *klass.Klass
}

// Read implements serial.Decoder: parse one record, materializing only the
// needed fields.
func (d *tupleDecoder) Read() (heap.Addr, error) {
	if _, err := d.r.Peek(1); err != nil {
		return heap.Null, err
	}
	if d.k == nil {
		k, err := d.rt.LoadClass(d.c.class)
		if err != nil {
			return heap.Null, err
		}
		d.k = k
	}
	row, err := d.rt.New(d.k)
	if err != nil {
		return heap.Null, err
	}
	rh := d.rt.Pin(row)
	defer rh.Release()

	var scratch [8]byte
	for i := range d.k.Fields {
		f := &d.k.Fields[i]
		wanted := d.c.needed == nil || d.c.needed[f.Name]
		if f.Kind == klass.Ref {
			if _, err := io.ReadFull(d.r, scratch[:4]); err != nil {
				return heap.Null, err
			}
			n := binary.BigEndian.Uint32(scratch[:4])
			if n == nullString {
				continue
			}
			if n > maxStringUnits {
				return heap.Null, fmt.Errorf("batch: tuple field %s.%s: string length %d exceeds the %d-unit cap (corrupt stream?)", d.k.Name, f.Name, n, maxStringUnits)
			}
			if !wanted {
				// Lazy: skip the payload without building objects.
				if _, err := d.r.Discard(int(n) * 2); err != nil {
					return heap.Null, err
				}
				continue
			}
			s, err := d.readString(int(n))
			if err != nil {
				return heap.Null, err
			}
			d.rt.SetRef(rh.Addr(), f, s)
			continue
		}
		sz := f.Kind.Size()
		if !wanted {
			if _, err := d.r.Discard(int(sz)); err != nil {
				return heap.Null, err
			}
			continue
		}
		if _, err := io.ReadFull(d.r, scratch[:sz]); err != nil {
			return heap.Null, err
		}
		var raw uint64
		switch sz {
		case 1:
			raw = uint64(scratch[0])
		case 2:
			raw = uint64(binary.BigEndian.Uint16(scratch[:2]))
		case 4:
			raw = uint64(binary.BigEndian.Uint32(scratch[:4]))
		default:
			raw = binary.BigEndian.Uint64(scratch[:])
		}
		d.rt.SetRaw(rh.Addr(), f, raw)
	}
	return rh.Addr(), nil
}

// readString materializes a String object (with backing char[]) from n
// UTF-16 code units, while protecting intermediates from GC.
func (d *tupleDecoder) readString(n int) (heap.Addr, error) {
	arrK, err := d.rt.LoadClass(vm.CharArrayClass)
	if err != nil {
		return heap.Null, err
	}
	strK, err := d.rt.LoadClass(vm.StringClass)
	if err != nil {
		return heap.Null, err
	}
	arr, err := d.rt.NewArray(arrK, n)
	if err != nil {
		return heap.Null, err
	}
	var ah *gc.Handle = d.rt.Pin(arr)
	defer ah.Release()
	var scratch [2]byte
	var hash int32
	for j := 0; j < n; j++ {
		if _, err := io.ReadFull(d.r, scratch[:]); err != nil {
			return heap.Null, err
		}
		u := binary.BigEndian.Uint16(scratch[:])
		d.rt.ArraySetChar(ah.Addr(), j, u)
		hash = 31*hash + int32(u)
	}
	s, err := d.rt.New(strK)
	if err != nil {
		return heap.Null, err
	}
	d.rt.SetRef(s, strK.FieldByName("value"), ah.Addr())
	d.rt.SetInt(s, strK.FieldByName("hash"), int64(hash))
	return s, nil
}
