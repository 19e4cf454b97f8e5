package vm

import (
	"fmt"

	"skyway/internal/heap"
)

// The per-heap transfer state (§3.3, §4.2). A baddr header word records the
// (phase, stream) pair that claimed its object, and every sender on the heap
// compares it against this runtime's current phase — so the phase counter,
// the stream-ID allocator and the guard between them belong to the runtime,
// as shuffleStart belongs to the JVM in the paper. A (phase, stream) pair is
// therefore handed out at most once per heap, however many transfer services
// (core.Skyway views) are opened over it.

// StreamsPerPhase is how many sender streams one shuffle phase can tell
// apart: the baddr stream field is 16 bits.
const StreamsPerPhase = 1 << 16

// TransferStats aggregates the volume every sender stream on a runtime has
// folded in.
type TransferStats struct {
	ObjectsSent uint64
	BytesSent   uint64
	// Byte composition of sent data, for the §5.2 "extra bytes" analysis:
	// headers (incl. array length words), padding, and pointer slots.
	HeaderBytes  uint64
	PaddingBytes uint64
	PointerBytes uint64
	// OverflowHits counts shared-object visits resolved through the
	// thread-local hash table instead of the baddr word.
	OverflowHits uint64
}

// StreamIDsExhaustedError reports a sender stream opened after its phase had
// already handed out every 16-bit stream ID: its baddr claims would be
// indistinguishable from an earlier stream's.
type StreamIDsExhaustedError struct {
	Phase uint8
}

func (e *StreamIDsExhaustedError) Error() string {
	return fmt.Sprintf("vm: shuffle phase %d already opened its %d sender streams (16-bit stream IDs); call ShuffleStart before opening more",
		e.Phase, StreamsPerPhase)
}

// ShuffleStart begins a new shuffling phase (§3.3): baddr bookkeeping from
// the previous phase becomes stale wholesale, so output buffers are
// logically cleared without touching any object. The 8-bit phase space
// wraps; on wrap every live baddr word is cleared so phase 1 starts clean.
//
// ShuffleStart blocks until every in-flight write (HoldPhase) has been
// released; streams that outlive the bump fail HoldPhase rather than
// silently mixing phases.
func (rt *Runtime) ShuffleStart() {
	rt.phaseMu.Lock()
	defer rt.phaseMu.Unlock()
	next := rt.Phase() + 1
	if next == 0 {
		rt.clearAllBaddrs()
		next = 1
	}
	rt.phaseFirstStream = rt.nextStream.Load()
	rt.sid.Store(uint32(next))
}

// Phase returns the current shuffle phase ID.
func (rt *Runtime) Phase() uint8 { return uint8(rt.sid.Load()) }

// OpenStream gives a new sender stream its identity: the current phase and a
// stream ID. IDs run on across phases (uint16 wrap matches the 2-byte baddr
// field); ok is false when the phase had already handed out all of them, so
// this one repeats an earlier stream's and must not claim baddr words (the
// caller reports a StreamIDsExhaustedError).
func (rt *Runtime) OpenStream() (phase uint8, stream uint16, ok bool) {
	rt.phaseMu.RLock()
	defer rt.phaseMu.RUnlock()
	n := rt.nextStream.Add(1)
	return rt.Phase(), uint16(n), n-rt.phaseFirstStream <= StreamsPerPhase
}

// HoldPhase takes the read side of the phase guard for a stream opened in
// phase and reports whether the runtime is still in it; on false nothing is
// held. A sender holds the guard once per batch of roots — one
// core.Writer.WriteObjects call: a whole shuffle block, or WriteObject's single
// root — and for every traversal in it, so the phase can never advance (and,
// on 8-bit wrap, clearAllBaddrs can never run) while it is claiming baddr
// words under the phase it checked; a ShuffleStart waits out the batch.
// Without this, a concurrent sender could publish a claim composed with a
// stale phase just after the bump — the §4.2 hazard a sequential harness never
// exercises.
func (rt *Runtime) HoldPhase(phase uint8) bool {
	rt.phaseMu.RLock()
	if rt.Phase() != phase {
		rt.phaseMu.RUnlock()
		return false
	}
	return true
}

// ReleasePhase releases a successful HoldPhase.
func (rt *Runtime) ReleasePhase() { rt.phaseMu.RUnlock() }

// AddTransferStats folds one sender stream's counts into the runtime's.
func (rt *Runtime) AddTransferStats(d TransferStats) {
	rt.statsMu.Lock()
	defer rt.statsMu.Unlock()
	rt.stats.ObjectsSent += d.ObjectsSent
	rt.stats.BytesSent += d.BytesSent
	rt.stats.HeaderBytes += d.HeaderBytes
	rt.stats.PaddingBytes += d.PaddingBytes
	rt.stats.PointerBytes += d.PointerBytes
	rt.stats.OverflowHits += d.OverflowHits
}

// TransferStats returns a copy of the accumulated statistics.
func (rt *Runtime) TransferStats() TransferStats {
	rt.statsMu.Lock()
	defer rt.statsMu.Unlock()
	return rt.stats
}

// clearAllBaddrs walks every live object and zeroes its baddr word. Called
// only on 8-bit phase wraparound (every 255 shuffles), with phaseMu held, so
// no sender is claiming words meanwhile.
func (rt *Runtime) clearAllBaddrs() {
	h := rt.Heap
	if !h.Layout().Baddr {
		return
	}
	for _, s := range []*heap.Region{&h.Eden, &h.From, &h.Old} {
		for a := s.Start; a < s.Top; a = a.Add(rt.ObjectSize(a)) {
			h.AtomicSetBaddr(a, 0)
		}
	}
	// Buffer space may contain unparsed chunks; parsed objects there were
	// received with baddr already zero and writers reset them per phase,
	// so chunks are left untouched.
}
