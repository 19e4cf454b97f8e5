package vm

import (
	"fmt"

	"skyway/internal/heap"
	"skyway/internal/verify"
)

// The Runtime implements verify.Meta and verify.ChunkMeta, giving the heap
// verifier the class-resolution knowledge it needs without coupling it to
// the class loader; the object-shape methods of both sit with gc.Meta's in
// runtime.go.

// ValidKlassWord implements verify.Meta: it reports whether a live object's
// klass word resolves to a loaded class.
func (rt *Runtime) ValidKlassWord(w uint64) bool {
	return w < uint64(len(rt.klasses))
}

// EachPinned implements verify.Meta by forwarding to the collector's pinned
// input-buffer chunk table.
func (rt *Runtime) EachPinned(fn func(start heap.Addr, size uint32, parsed bool)) {
	rt.GC.EachPinned(fn)
}

// wireVerifier installs the heap verifier as the collector's before/after
// hook — HotSpot's VerifyBeforeGC/VerifyAfterGC. NewRuntime calls it when
// verification is on for the process: SKYWAY_VERIFY, or a test's
// verify.SetEnabled around the call.
func (rt *Runtime) wireVerifier() {
	rt.GC.VerifyHook = func(stage string) {
		verify.Must(fmt.Sprintf("%s %s", rt.Name, stage), verify.Verify(rt.Heap, rt))
	}
}
