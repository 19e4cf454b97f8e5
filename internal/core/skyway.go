// Package core implements Skyway's data transfer (§3, §4): the sender-side
// object-graph copy with pointer relativization (Algorithm 2), the streaming
// buffer protocol, and the receiver-side chunked input buffers with linear
// absolutization (§4.3).
//
// The per-heap transfer state — the shuffle-phase counter driven by
// ShuffleStart (§4.2 "Multi-phase data shuffling") and the stream ID
// allocator that disambiguates concurrent sender threads sharing objects
// (§4.2 "Support for Threads") — lives in the runtime (vm/shuffle.go), next
// to the baddr words it is compared against. A Skyway value is a view of it.
package core

import "skyway/internal/vm"

// Skyway is a runtime's transfer service: a view of the runtime's phase,
// stream IDs and statistics. Any number of views may be opened over one
// runtime; they all share that state.
type Skyway struct {
	rt *vm.Runtime
}

// Stats aggregates transfer statistics across a runtime's streams.
type Stats = vm.TransferStats

// New returns a Skyway service for a runtime.
func New(rt *vm.Runtime) *Skyway { return &Skyway{rt: rt} }

// Runtime returns the runtime the service is bound to.
func (s *Skyway) Runtime() *vm.Runtime { return s.rt }

// ShuffleStart begins a new shuffling phase on the runtime (§3.3); see
// vm.Runtime.ShuffleStart. Writers that outlive the bump get a phase-mismatch
// error on their next WriteObject rather than silently mixing phases.
func (s *Skyway) ShuffleStart() { s.rt.ShuffleStart() }

// Phase returns the runtime's current shuffle phase ID.
func (s *Skyway) Phase() uint8 { return s.rt.Phase() }

// Snapshot returns a copy of the runtime's accumulated statistics.
func (s *Skyway) Snapshot() Stats { return s.rt.TransferStats() }

// The baddr word encoding (§4.2) lives in internal/heap (ComposeBaddr and
// friends): it is a property of the object header that the collector and
// the verifier share with this transfer layer.
