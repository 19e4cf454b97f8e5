// Package obs is the runtime observability layer: per-runtime ring-buffered
// trace spans plus process-wide atomic counters and gauges. The paper's whole
// evaluation is a time-and-byte accounting exercise (§2.2, Figs. 3/7/8), and
// this package is how a run is seen from the inside — GC pauses, Skyway
// transfers, executor tasks, and modelled I/O each become spans on their
// runtime's timeline.
//
// Tracing is off unless the SKYWAY_TRACE environment variable names an output
// file. When off, the span API compiles down to a nil check and return:
// Tracer.Span returns a nil *Span whose methods no-op, so instrumented hot
// paths pay one atomic load. Counters are always live —
// a counter bump is a single atomic add — and are exported in Prometheus
// text format by WriteMetrics (served by cmd/skywayd's /metrics endpoint).
// Spans are exported as Chrome-trace-format JSON by WriteTrace; open the
// file in chrome://tracing or https://ui.perfetto.dev.
package obs

import (
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// SpanRingSize is the per-tracer span capacity. The ring overwrites its
// oldest spans when full, so a long run keeps its tail — the part a trace
// viewer is usually opened for.
const SpanRingSize = 1 << 14

// enabled gates span recording. 0 = off, 1 = on.
var enabled atomic.Bool

// epoch anchors span timestamps so trace files start near ts=0.
var epoch = time.Now()

func init() {
	if os.Getenv("SKYWAY_TRACE") != "" {
		enabled.Store(true)
	}
}

// Enabled reports whether span recording is on.
func Enabled() bool { return enabled.Load() }

// TracePath returns the SKYWAY_TRACE output file, or "".
func TracePath() string { return os.Getenv("SKYWAY_TRACE") }

// Arg is one key/value annotation on a span.
type Arg struct {
	Key string
	Val int64
}

// I64 builds an integer span annotation.
func I64(key string, v int64) Arg { return Arg{Key: key, Val: v} }

// span is one recorded event in a tracer's ring.
type span struct {
	cat, name string
	start     time.Time
	dur       time.Duration
	args      []Arg
}

// Tracer records spans for one timeline — one per simulated runtime (the
// Chrome trace maps each tracer to a thread row). Obtain tracers through
// NewTracer; the zero value and nil are safe to call Span/Emit on.
type Tracer struct {
	name string

	mu      sync.Mutex
	ring    [SpanRingSize]span
	next    int  // ring write cursor
	wrapped bool // ring has overwritten at least one span
}

var (
	tracersMu sync.Mutex
	tracers   []*Tracer
	byName    = map[string]*Tracer{}
)

// NewTracer returns the tracer named name, creating and registering it on
// first use. Tracers are deduplicated by name so that repeated cluster
// boots (one per experiment cell) share one timeline per runtime name.
func NewTracer(name string) *Tracer {
	tracersMu.Lock()
	defer tracersMu.Unlock()
	if t, ok := byName[name]; ok {
		return t
	}
	t := &Tracer{name: name}
	byName[name] = t
	tracers = append(tracers, t)
	return t
}

// Name returns the tracer's timeline name.
func (t *Tracer) Name() string { return t.name }

// allTracers snapshots the registry.
func allTracers() []*Tracer {
	tracersMu.Lock()
	defer tracersMu.Unlock()
	out := make([]*Tracer, len(tracers))
	copy(out, tracers)
	return out
}

// Span opens a span now; call End (optionally after Arg annotations) to
// record it. Returns nil — every method of which no-ops — when tracing is
// disabled or t is nil, so callers never guard call sites themselves.
func (t *Tracer) Span(cat, name string) *Span {
	if t == nil || !enabled.Load() {
		return nil
	}
	return &Span{t: t, cat: cat, name: name, start: time.Now()}
}

// Emit records a complete span with an externally supplied duration — used
// for modelled time (netsim I/O costs) and for spans whose start was
// captured before the emitting call (writer open → close).
func (t *Tracer) Emit(cat, name string, start time.Time, dur time.Duration, args ...Arg) {
	if t == nil || !enabled.Load() || start.IsZero() {
		return
	}
	t.mu.Lock()
	t.ring[t.next] = span{cat: cat, name: name, start: start, dur: dur, args: args}
	t.next++
	if t.next == SpanRingSize {
		t.next = 0
		t.wrapped = true
	}
	t.mu.Unlock()
}

// eachSpan visits the ring oldest-first under the tracer lock.
func (t *Tracer) eachSpan(fn func(s *span)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wrapped {
		for i := t.next; i < SpanRingSize; i++ {
			fn(&t.ring[i])
		}
	}
	for i := 0; i < t.next; i++ {
		fn(&t.ring[i])
	}
}

// Span is an open span handle. A nil *Span is valid and inert.
type Span struct {
	t         *Tracer
	cat, name string
	start     time.Time
	args      []Arg
}

// Arg annotates the span; returns s for chaining. No-op on nil.
func (s *Span) Arg(key string, v int64) *Span {
	if s != nil {
		s.args = append(s.args, Arg{Key: key, Val: v})
	}
	return s
}

// End closes and records the span. No-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.Emit(s.cat, s.name, s.start, time.Since(s.start), s.args...)
}
