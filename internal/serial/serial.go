// Package serial implements the serialization/deserialization baselines the
// paper compares Skyway against (§2, §5.1): a Java-serializer-like codec
// (per-stream class descriptors with full field metadata, reflective
// field access by name, receiver-side rehashing), a Kryo-like codec
// (manually registered integer type IDs, cached field accessors), hand-
// written "manual" codecs, and schema-compiled codecs in the Colfer /
// Protostuff mould. All of them operate on the same simulated managed heap
// as Skyway, so the cost differences come from the mechanisms the paper
// blames: string-keyed reflective lookups, per-field function calls, type
// strings on the wire, and object re-creation on receive.
package serial

import (
	"fmt"
	"io"

	"skyway/internal/core"
	"skyway/internal/heap"
	"skyway/internal/vm"
)

// Codec constructs encoders and decoders for one serialization library.
type Codec interface {
	// Name identifies the library (e.g. "kryo-manual", "java").
	Name() string
	// NewEncoder opens a serialization stream writing to w.
	NewEncoder(rt *vm.Runtime, w io.Writer) Encoder
	// NewDecoder opens a deserialization stream reading from r.
	NewDecoder(rt *vm.Runtime, r io.Reader) Decoder
}

// ByName builds the codec a serializer name selects — the one name → codec
// table the engines, experiments and examples share. reg is the Kryo
// registration table: only "kryo" reads it, and refuses a nil one (a caller
// that has no table cannot name Kryo). "skyway" decodes eagerly into
// the managed heap, "skyway-arena" onto the off-heap arena; the two write the
// same wire.
func ByName(name string, reg *Registration) (Codec, error) {
	switch name {
	case "java":
		return JavaCodec(), nil
	case "kryo":
		if reg == nil {
			return nil, fmt.Errorf("serial: kryo needs a registration table")
		}
		return KryoCodec(reg), nil
	case "skyway", "skyway-arena":
		return &SkywayCodec{Arena: name == "skyway-arena"}, nil
	}
	return nil, fmt.Errorf("serial: unknown serializer %q", name)
}

// Encoder serializes object graphs. Back references are tracked per stream,
// as in the Java serializer and Kryo.
type Encoder interface {
	// Write serializes the graph rooted at root.
	Write(root heap.Addr) error
	// WriteBatch serializes the graph rooted at each root, in order: the
	// bytes of one Write per root. A shuffle block is one batch, which lets
	// an encoder overlap the cache misses of first touching its records.
	WriteBatch(roots []heap.Addr) error
	// Flush drains buffered output.
	Flush() error
}

// Decoder deserializes object graphs produced by the matching Encoder.
type Decoder interface {
	// Read reconstructs the next root; io.EOF at end of stream.
	Read() (heap.Addr, error)
}

// ConcurrentCodec is an optional Codec capability: a codec whose encoders
// may run on concurrent goroutines over a single runtime's heap (Skyway's
// §4.2 multi-threaded senders). Baseline codecs do not implement it — their
// encode paths touch per-runtime mutable state (identity-hash computation,
// reflective accessor caches), so the harness keeps their block encoding
// sequential per executor.
type ConcurrentCodec interface {
	// ConcurrentEncoders reports whether encoders for one runtime are safe
	// to drive from multiple goroutines at once.
	ConcurrentEncoders() bool
}

// Registration is a Kryo-style manual class registration table: the order
// of Register calls defines integer IDs that must match on every node
// (§2.1). Codecs with TypeRegisteredID require one.
type Registration struct {
	ids   map[string]uint32
	names []string
}

// NewRegistration builds a table from names in registration order.
func NewRegistration(names ...string) *Registration {
	r := &Registration{ids: make(map[string]uint32, len(names))}
	for _, n := range names {
		r.Register(n)
	}
	return r
}

// Register appends a class (idempotent).
func (r *Registration) Register(name string) {
	if _, ok := r.ids[name]; ok {
		return
	}
	r.ids[name] = uint32(len(r.names))
	r.names = append(r.names, name)
}

// IDOf returns the registered ID for a class name.
func (r *Registration) IDOf(name string) (uint32, bool) {
	id, ok := r.ids[name]
	return id, ok
}

// NameOf returns the class name for a registered ID.
func (r *Registration) NameOf(id uint32) (string, bool) {
	if int(id) >= len(r.names) {
		return "", false
	}
	return r.names[id], true
}

// WriteWindowed is WriteBatch for an encoder that serializes a root at a time:
// roots go to write in order, a window at a time — core.Writer's window, so
// that the paper's comparisons stay between S/D mechanisms and not between who
// overlaps its cache misses — the klass word of every root of a window loaded
// before the first is written. Records reach a
// shuffle's encoder in key order, scattered over the heap, so each one's
// first touch is a cache miss; loaded back to back the misses overlap, where
// one behind each record's serialization they would not.
func WriteWindowed(rt *vm.Runtime, roots []heap.Addr, write func(heap.Addr) error) error {
	for len(roots) > 0 {
		win := roots[:min(len(roots), core.RootWindow)]
		roots = roots[len(win):]
		var top uint64
		for _, root := range win {
			if root != heap.Null {
				top = max(top, rt.Heap.KlassWord(root))
			}
		}
		if !rt.ValidKlassWord(top) {
			return fmt.Errorf("serial: batch holds a root whose klass word %#x names no loaded class", top)
		}
		for _, root := range win {
			if err := write(root); err != nil {
				return err
			}
		}
	}
	return nil
}
