// Package skyway is a Go reproduction of "Skyway: Connecting Managed Heaps
// in Distributed Big Data Systems" (Nguyen et al., ASPLOS 2018): a data
// transfer mechanism that moves object graphs between managed heaps without
// serialization by copying objects verbatim, relativizing pointers in one
// linear pass, and numbering types globally.
//
// Because Go exposes no hooks into its own runtime, the library ships the
// managed runtime Skyway modifies as an explicit substrate: a heap with a
// 64-bit HotSpot-style object layout, a classloader, and a generational
// garbage collector. A Runtime plays the role of one JVM process; object
// graphs built in one Runtime transfer to another over any io.Writer /
// io.Reader pair (files, sockets, in-memory buffers).
//
// Quick start:
//
//	cp := skyway.NewClassPath(
//		&skyway.ClassDef{Name: "Point", Fields: []skyway.FieldDef{
//			{Name: "x", Kind: skyway.Int32},
//			{Name: "y", Kind: skyway.Int32},
//		}},
//	)
//	cluster := skyway.NewInProcRegistry()
//	sender, _ := skyway.NewRuntime(cp, skyway.RuntimeOptions{Name: "a", Registry: cluster.Client()})
//	receiver, _ := skyway.NewRuntime(cp, skyway.RuntimeOptions{Name: "b", Registry: cluster.Client()})
//
//	svc := skyway.NewService(sender)
//	var buf bytes.Buffer
//	w := svc.NewWriter(&buf)
//	w.WriteObject(obj)
//	w.Close()
//
//	r := skyway.NewReader(receiver, &buf)
//	remote, _ := r.ReadObject()
//
// See the examples/ directory for complete programs, and DESIGN.md for the
// mapping from the paper's sections to packages.
package skyway

import (
	"io"
	"net"

	"skyway/internal/core"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/registry"
	"skyway/internal/vm"
)

// Re-exported object-model types.
type (
	// ClassDef declares a class on the cluster classpath.
	ClassDef = klass.ClassDef
	// FieldDef declares one field of a ClassDef.
	FieldDef = klass.FieldDef
	// Kind is a field's primitive category.
	Kind = klass.Kind
	// Klass is a loaded class with resolved layout.
	Klass = klass.Klass
	// ClassPath is the set of class definitions every node shares.
	ClassPath = klass.Path
	// Layout selects a runtime's object header geometry.
	Layout = klass.Layout

	// Addr is an object reference within a Runtime's heap; 0 is null.
	Addr = heap.Addr
	// HeapConfig sizes a Runtime's heap regions.
	HeapConfig = heap.Config

	// Runtime is one simulated managed runtime (a "JVM process").
	Runtime = vm.Runtime
	// RuntimeOptions configures NewRuntime.
	RuntimeOptions = vm.Options

	// Service is a runtime's Skyway transfer service: shuffle phases and
	// stream creation, as a view of state the runtime owns.
	Service = core.Skyway
	// Writer streams object graphs out of a heap.
	Writer = core.Writer
	// Reader receives object graphs into a heap.
	Reader = core.Reader
	// TransferStats aggregates a runtime's transfer volume.
	TransferStats = core.Stats
)

// Field kinds.
const (
	Bool    = klass.Bool
	Int8    = klass.Int8
	Int16   = klass.Int16
	Char    = klass.Char
	Int32   = klass.Int32
	Float32 = klass.Float32
	Int64   = klass.Int64
	Float64 = klass.Float64
	Ref     = klass.Ref
)

// Null is the null object reference.
const Null = heap.Null

// NewClassPath builds a classpath from definitions, panicking on invalid
// schemas (they are static program data).
func NewClassPath(defs ...*ClassDef) *ClassPath {
	return klass.NewPath().MustDefine(defs...)
}

// NewRuntime boots a runtime over cp.
func NewRuntime(cp *ClassPath, opts RuntimeOptions) (*Runtime, error) {
	return vm.NewRuntime(cp, opts)
}

// NewService returns a Skyway transfer service for a runtime. Every service
// over one runtime shares the runtime's shuffle phase, stream IDs and
// statistics, so any number may be created.
func NewService(rt *Runtime) *Service { return core.New(rt) }

// NewReader opens a Skyway object input stream — the receiving end of a
// transfer — reading from r into rt's heap.
func NewReader(rt *Runtime, r io.Reader) *Reader { return core.NewReader(rt, r) }

// Writer options.
var (
	// WithBufferSize sets a writer's output-buffer capacity.
	WithBufferSize = core.WithBufferSize
	// WithCompactHeaders leaves the header words the receiver can rebuild
	// off the wire and shares one run header among consecutive objects of a
	// class (the paper's §5.2 future work).
	WithCompactHeaders = core.WithCompactHeaders
)

// InProcRegistry hosts the driver-side global type registry in-process —
// the usual configuration for single-process multi-runtime deployments.
type InProcRegistry struct{ reg *registry.Registry }

// NewInProcRegistry creates an empty driver registry.
func NewInProcRegistry() *InProcRegistry {
	return &InProcRegistry{reg: registry.NewRegistry()}
}

// Client returns a registry client to pass to RuntimeOptions.Registry.
func (r *InProcRegistry) Client() registry.Client { return registry.InProc{R: r.reg} }

// Registry exposes the underlying driver registry (diagnostics, serving).
func (r *InProcRegistry) Registry() *registry.Registry { return r.reg }

// ServeRegistry exposes a driver registry over TCP for remote workers —
// Algorithm 1's daemon. Close the returned server to stop.
func ServeRegistry(r *InProcRegistry, ln net.Listener) *registry.Server {
	return registry.Serve(r.reg, ln)
}

// DialRegistry connects a worker to a remote driver registry.
func DialRegistry(addr string) (registry.Client, error) { return registry.Dial(addr) }

// DefaultHeapConfig returns a modest heap sized for examples and tests.
func DefaultHeapConfig() HeapConfig { return heap.DefaultConfig() }
