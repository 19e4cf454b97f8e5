// Package vm ties the substrates into a node runtime — the role played by
// one JVM process in the paper: a managed heap, a classloader wired to the
// global type registry (§4.1), a garbage collector, and a typed object
// access API with a card-table write barrier.
package vm

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"skyway/internal/arena"
	"skyway/internal/fault"
	"skyway/internal/gc"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/obs"
	"skyway/internal/registry"
	"skyway/internal/verify"
)

// ErrOOM is returned when an allocation cannot be satisfied even after a
// full collection.
var ErrOOM = errors.New("vm: out of memory")

// Runtime is one simulated JVM instance.
type Runtime struct {
	// Name identifies the node (e.g. "driver", "worker-2") in diagnostics.
	Name string

	Heap *heap.Heap
	GC   *gc.Collector

	// Arena is the node's off-heap region space: received Skyway segments
	// staged there stay relativized and invisible to GC, read through
	// tagged addresses the accessor layer routes (see arena.go).
	Arena *arena.Space

	// Trace is the runtime's observability timeline (one thread row in the
	// Chrome trace): GC pauses, Skyway transfers, and executor tasks on
	// this runtime all land here. Always non-nil; spans are no-ops until
	// tracing is enabled (SKYWAY_TRACE).
	Trace *obs.Tracer

	cp      *klass.Path
	klasses []*klass.Klass // indexed by LID
	// elemKinds holds every loaded klass's element kind by LID (Invalid for
	// a non-array), so an element access learns its array's width from the
	// klass word without following the klass pointer.
	elemKinds []klass.Kind
	byName    map[string]*klass.Klass
	// byTID is the one type ID → klass table, dense (the registry assigns IDs
	// from 0) and nil where no class is loaded. Every walker of wire-form
	// images — the Skyway reader, the compact inflater, the arena accessors,
	// the chunk verifier — resolves through KlassByTID; enterTID is the one
	// place the table is filled.
	byTID []*klass.Klass

	// View is the node's registry view; nil for a detached runtime (then
	// classes get TID -1 and Skyway transfer is unavailable).
	View *registry.View

	hashState uint64

	// fieldUpdates holds the §3.3 post-transfer field update hooks, indexed
	// by klass LID (shorter than the klass table until a class past its end
	// registers one): the Skyway reader asks once per received object.
	fieldUpdates [][]FieldUpdate

	// Per-heap transfer state (shuffle.go). phaseMu orders the phase bump
	// (write side) against in-flight senders and stream opens (read side);
	// phaseFirstStream is nextStream's value at the last bump.
	phaseMu          sync.RWMutex
	sid              atomic.Uint32 // current shuffle phase ID (8-bit)
	nextStream       atomic.Uint32 // stream/thread ID allocator (16-bit space)
	phaseFirstStream uint32
	statsMu          sync.Mutex
	stats            TransferStats

	// ClassesLoaded counts classloading events, for registry statistics.
	ClassesLoaded int
}

// FieldUpdate is a registered post-transfer update (§3.3): after an object
// of the class arrives, fn is invoked to recompute the field's value.
type FieldUpdate struct {
	Field *klass.Field
	Fn    func(rt *Runtime, obj heap.Addr) uint64
}

// Options configures NewRuntime.
type Options struct {
	Name string
	Heap heap.Config
	// Registry connects the runtime to the driver registry; nil leaves the
	// runtime detached.
	Registry registry.Client
}

// NewRuntime boots a runtime over the given classpath.
func NewRuntime(cp *klass.Path, opts Options) (*Runtime, error) {
	if opts.Heap.EdenSize == 0 {
		opts.Heap = heap.DefaultConfig()
	}
	rt := &Runtime{
		Name:      opts.Name,
		Heap:      heap.New(opts.Heap),
		Arena:     arena.NewSpace(),
		cp:        cp,
		byName:    make(map[string]*klass.Klass),
		hashState: 0x9E3779B97F4A7C15,
	}
	rt.sid.Store(1)
	rt.Trace = obs.NewTracer(opts.Name)
	rt.GC = gc.New(rt.Heap, rt)
	rt.GC.Trace = rt.Trace
	if verify.Enabled() {
		rt.wireVerifier()
	}
	EnsureBuiltins(cp)
	EnsureCollections(cp)
	if opts.Registry != nil {
		v, err := registry.NewView(opts.Registry)
		if err != nil {
			return nil, err
		}
		rt.View = v
	}
	if _, err := rt.LoadClass(StringClass); err != nil {
		return nil, err
	}
	return rt, nil
}

// ClassPath returns the classpath the runtime loads from.
func (rt *Runtime) ClassPath() *klass.Path { return rt.cp }

// --- classloading -----------------------------------------------------------

// LoadClass loads (or returns the already-loaded) klass for name, resolving
// its superclass chain, computing the field layout for this runtime's header
// geometry, and — when attached to a registry — obtaining the global type ID
// and writing it into the klass meta object (Algorithm 1, worker part 2).
func (rt *Runtime) LoadClass(name string) (*klass.Klass, error) {
	if k, ok := rt.byName[name]; ok {
		return k, nil
	}
	var k *klass.Klass
	var err error
	if _, _, isArr := klass.ParseArrayName(name); isArr {
		k, err = klass.ResolveArray(name, rt.Heap.Layout())
		if err != nil {
			return nil, err
		}
	} else {
		def := rt.cp.Lookup(name)
		if def == nil {
			return nil, fmt.Errorf("vm: %s: class %s not found on classpath", rt.Name, name)
		}
		var super *klass.Klass
		if def.Super != "" {
			super, err = rt.LoadClass(def.Super)
			if err != nil {
				return nil, err
			}
		}
		k, err = klass.ResolveLayout(def, super, rt.Heap.Layout())
		if err != nil {
			return nil, err
		}
	}
	k.LID = int32(len(rt.klasses))
	if rt.View != nil {
		tid, err := rt.View.IDFor(name)
		if err != nil {
			return nil, err
		}
		if err := rt.enterTID(k, tid); err != nil {
			return nil, err
		}
	}
	rt.klasses = append(rt.klasses, k)
	rt.elemKinds = append(rt.elemKinds, k.Elem)
	rt.byName[name] = k
	rt.ClassesLoaded++
	return k, nil
}

// MustLoad is LoadClass panicking on error, for statically known schemas.
func (rt *Runtime) MustLoad(name string) *klass.Klass {
	k, err := rt.LoadClass(name)
	if err != nil {
		panic(err)
	}
	return k
}

// KlassAt returns the klass with local ID lid.
func (rt *Runtime) KlassAt(lid int32) *klass.Klass {
	if uint32(lid) >= uint32(len(rt.klasses)) {
		panic(badLID{rt.Name, lid})
	}
	return rt.klasses[lid]
}

// badLID is KlassAt's panic value, formatted only when printed, which keeps
// KlassAt inlinable.
type badLID struct {
	rt  string
	lid int32
}

func (e badLID) Error() string { return fmt.Sprintf("vm: %s: bad klass LID %d", e.rt, e.lid) }

// KlassByName returns the loaded klass for name, or nil.
func (rt *Runtime) KlassByName(name string) *klass.Klass { return rt.byName[name] }

// maxTID bounds the type IDs a registry may answer: far above any cluster's
// class count, and low enough that a wild answer cannot size the table.
const maxTID = 1 << 20

// TypeIDRangeError reports a registry that answered a class lookup with a
// type ID outside [0, maxTID).
type TypeIDRangeError struct {
	Class string
	TID   int32
}

func (e *TypeIDRangeError) Error() string {
	return fmt.Sprintf("vm: registry answered type ID %d for class %s, outside [0, %d)", e.TID, e.Class, maxTID)
}

// enterTID records tid as k's global type ID (Algorithm 1's WRITETID) and
// enters k in the type ID table. It is where the table's two promises are
// kept: an ID indexes it, and a klass in it has sized kinds — one whose field
// or element kind has no defined size (a malformed or out-of-sync class
// definition) would make every sized accessor silently drop bytes
// (heap.StoreBytes panics on one), so a stream resolving to it fails as a
// type error before any of its objects is walked.
func (rt *Runtime) enterTID(k *klass.Klass, tid int32) error {
	if tid < 0 || tid >= maxTID {
		return &TypeIDRangeError{Class: k.Name, TID: tid}
	}
	if k.IsArray && k.ElemSize() == 0 {
		return fmt.Errorf("vm: array class %s has element kind %v of undefined size", k.Name, k.Elem)
	}
	for i := range k.Fields {
		if f := &k.Fields[i]; f.Kind.Size() == 0 {
			return fmt.Errorf("vm: class %s field %s has kind %v of undefined size", k.Name, f.Name, f.Kind)
		}
	}
	for int(tid) >= len(rt.byTID) {
		rt.byTID = append(rt.byTID, nil)
	}
	k.TID = tid
	rt.byTID[tid] = k
	return nil
}

// KlassByTID resolves a global type ID to a local klass: a probe of the type
// ID table, and behind it loadByTID for a class this runtime has not met.
func (rt *Runtime) KlassByTID(tid int32) (*klass.Klass, error) {
	// Unsigned: a negative ID indexes nothing.
	if uint32(tid) < uint32(len(rt.byTID)) {
		if k := rt.byTID[tid]; k != nil {
			return k, nil
		}
	}
	return rt.loadByTID(tid)
}

// loadByTID loads the class the registry knows as tid by name — the §4.1 "if
// we encounter an unloaded class ... Skyway instructs the class loader to
// load the missing class" path.
func (rt *Runtime) loadByTID(tid int32) (*klass.Klass, error) {
	if rt.View == nil {
		return nil, fmt.Errorf("vm: %s: no registry view to resolve type ID %d", rt.Name, tid)
	}
	name, err := rt.View.NameFor(tid)
	if err != nil {
		return nil, err
	}
	return rt.LoadClass(name)
}

// KlassOf returns the klass of the live object at a.
func (rt *Runtime) KlassOf(a heap.Addr) *klass.Klass {
	if heap.IsArenaAddr(a) {
		_, k, _, _ := rt.resolve(a)
		return k
	}
	return rt.KlassAt(int32(rt.Heap.KlassWord(a)))
}

// --- object shape (gc.Meta, verify.Meta, verify.ChunkMeta) --------------------

// shape asks klass.Extent what the instance of k at a is — a live object, or
// a wire image in buffer space; the two differ only in how their klass word
// resolved to k — bounded by the slab a lies in. The size is 0 when the
// length word describes no instance that fits: the collector cannot meet
// that (it walks what NewArray and the validating walker sized), and the
// verifier reports a zero size as a BadWalk.
func (rt *Runtime) shape(a heap.Addr, k *klass.Klass) (size uint32, nrefs int) {
	room := rt.Heap.TotalBytes() - uint64(a)
	var n uint64
	if k.IsArray && uint64(k.Size) <= room {
		n = uint64(rt.Heap.ArrayLen(a))
	}
	size, nrefs, _ = k.Extent(n, room)
	return size, nrefs
}

// refSlots hands fn the offset of every reference slot of the instance of k
// at a. (Apart from shape: a callback is a dynamic call, which the staleaddr
// call graph must treat as allocating, and the size side must not be.)
func (rt *Runtime) refSlots(a heap.Addr, k *klass.Klass, fn func(off uint32)) {
	_, nrefs := rt.shape(a, k)
	for i := 0; i < nrefs; i++ {
		fn(k.RefSlot(i))
	}
}

// ObjectSize implements gc.Meta.
func (rt *Runtime) ObjectSize(a heap.Addr) uint32 {
	size, _ := rt.shape(a, rt.KlassOf(a))
	return size
}

// RefSlots implements gc.Meta.
func (rt *Runtime) RefSlots(a heap.Addr, fn func(off uint32)) { rt.refSlots(a, rt.KlassOf(a), fn) }

// ImageSize implements verify.ChunkMeta: the padded size of the wire-form
// buffer image at a, whose klass word holds a global type ID; ok is whether
// that ID resolves to a class.
func (rt *Runtime) ImageSize(a heap.Addr) (size uint32, ok bool) {
	k, ok := rt.imageKlass(a)
	if !ok {
		return 0, false
	}
	size, _ = rt.shape(a, k)
	return size, true
}

// ImageRefSlots implements verify.ChunkMeta: the reference slot offsets of
// the wire-form buffer image at a.
func (rt *Runtime) ImageRefSlots(a heap.Addr, fn func(off uint32)) {
	if k, ok := rt.imageKlass(a); ok {
		rt.refSlots(a, k, fn)
	}
}

// imageKlass resolves the global type ID in a buffer image's klass word.
func (rt *Runtime) imageKlass(a heap.Addr) (*klass.Klass, bool) {
	k, err := rt.KlassByTID(int32(uint32(rt.Heap.KlassWord(a))))
	return k, err == nil
}

// --- allocation --------------------------------------------------------------

func (rt *Runtime) allocYoung(size uint32) (heap.Addr, error) {
	// Failpoint: miss the fast path at exactly this safepoint, forcing a
	// collection here (the GC-interaction stress of §4.3); with arg=oom the
	// allocation fails outright instead.
	if fault.Eval(fault.GCAllocFail) {
		if arg, _ := fault.Arg(fault.GCAllocFail); arg == "oom" {
			return heap.Null, fmt.Errorf("%w: %s: injected allocation failure of %d bytes", ErrOOM, rt.Name, size)
		}
	} else if a := rt.Heap.AllocYoung(size); a != heap.Null {
		return a, nil
	}
	if !rt.GC.Scavenge() {
		rt.GC.FullGC()
	}
	if a := rt.Heap.AllocYoung(size); a != heap.Null {
		return a, nil
	}
	rt.GC.FullGC()
	if a := rt.Heap.AllocYoung(size); a != heap.Null {
		return a, nil
	}
	// Objects larger than eden go straight to the old generation.
	if a := rt.Heap.AllocOld(size); a != heap.Null {
		return a, nil
	}
	return heap.Null, fmt.Errorf("%w: %s allocating %d bytes", ErrOOM, rt.Name, size)
}

// New allocates and zero-initializes an instance of k.
func (rt *Runtime) New(k *klass.Klass) (heap.Addr, error) {
	if k.IsArray {
		return heap.Null, fmt.Errorf("vm: New(%s): use NewArray for arrays", k.Name)
	}
	a, err := rt.allocYoung(k.Size)
	if err != nil {
		return heap.Null, err
	}
	rt.Heap.ZeroWords(a, k.Size)
	rt.Heap.SetKlassWord(a, uint64(k.LID))
	return a, nil
}

// NewArray allocates a zeroed array of n elements of array klass k.
func (rt *Runtime) NewArray(k *klass.Klass, n int) (heap.Addr, error) {
	if !k.IsArray {
		return heap.Null, fmt.Errorf("vm: NewArray(%s): not an array klass", k.Name)
	}
	// n may be a decoded wire length: a negative one widens to a length no
	// instance has, and Extent refuses what would wrap an allocation size.
	size, _, ok := k.Extent(uint64(n), math.MaxUint32)
	if !ok {
		return heap.Null, fmt.Errorf("vm: NewArray(%s): length %d out of range", k.Name, n)
	}
	a, err := rt.allocYoung(size)
	if err != nil {
		return heap.Null, err
	}
	rt.Heap.ZeroWords(a, size)
	rt.Heap.SetKlassWord(a, uint64(k.LID))
	rt.Heap.SetArrayLen(a, n)
	return a, nil
}

// MustNew is New panicking on OOM; workload code that treats OOM as fatal
// (as Spark executors do) uses this.
func (rt *Runtime) MustNew(k *klass.Klass) heap.Addr {
	a, err := rt.New(k)
	if err != nil {
		panic(err)
	}
	return a
}

// MustNewArray is NewArray panicking on OOM.
func (rt *Runtime) MustNewArray(k *klass.Klass, n int) heap.Addr {
	a, err := rt.NewArray(k, n)
	if err != nil {
		panic(err)
	}
	return a
}

// Pin registers a GC root handle for a.
func (rt *Runtime) Pin(a heap.Addr) *gc.Handle { return rt.GC.NewHandle(a) }

// --- identity hash ------------------------------------------------------------

// HashCode returns the object's identity hashcode, computing and caching it
// in the mark word on first use — exactly the JVM behaviour that makes
// Skyway's header-preserving copy skip receiver-side rehashing. Caching a
// hash in an arena image is identity metadata, not a logical mutation, so
// it does not trigger promotion (mirroring how eager absolutization leaves
// wire mark words in place).
func (rt *Runtime) HashCode(a heap.Addr) uint32 {
	if heap.IsArenaAddr(a) {
		_, _, img, p := rt.resolve(a)
		if p == heap.Null {
			m := heap.LoadBytes(img, klass.OffMark, klass.Int64)
			if h, ok := heap.MarkHash(m); ok {
				return h
			}
			h := rt.nextHash()
			heap.StoreBytes(img, klass.OffMark, klass.Int64, heap.MarkWithHash(m, h))
			return h
		}
		a = p
	}
	if h, ok := rt.Heap.HashOf(a); ok {
		return h
	}
	h := rt.nextHash()
	rt.Heap.SetHash(a, h)
	return h
}

// nextHash draws the next identity hash: a splitmix64 step over
// runtime-local state — repeatable per run order, well distributed.
func (rt *Runtime) nextHash() uint32 {
	rt.hashState += 0x9E3779B97F4A7C15
	z := rt.hashState
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return uint32((z ^ (z >> 31)) & 0x7FFFFFFF)
}

// --- field update registration (§3.3) ---------------------------------------

// RegisterUpdate registers a post-transfer field update for className.field.
// The Skyway reader applies it to every received instance of the class.
func (rt *Runtime) RegisterUpdate(className, field string, fn func(rt *Runtime, obj heap.Addr) uint64) error {
	k, err := rt.LoadClass(className)
	if err != nil {
		return err
	}
	f := k.FieldByName(field)
	if f == nil {
		return fmt.Errorf("vm: %s has no field %q", className, field)
	}
	for int(k.LID) >= len(rt.fieldUpdates) {
		rt.fieldUpdates = append(rt.fieldUpdates, nil)
	}
	rt.fieldUpdates[k.LID] = append(rt.fieldUpdates[k.LID], FieldUpdate{Field: f, Fn: fn})
	return nil
}

// UpdatesFor returns the registered field updates for klass k, or nil.
func (rt *Runtime) UpdatesFor(k *klass.Klass) []FieldUpdate {
	if int(k.LID) < len(rt.fieldUpdates) {
		return rt.fieldUpdates[k.LID]
	}
	return nil
}
