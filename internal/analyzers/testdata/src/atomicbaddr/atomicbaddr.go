// Package atomicbaddr is the skywayvet fixture for the atomicbaddr
// analyzer: plain Heap.Baddr/Heap.SetBaddr access outside internal/heap
// must be flagged, while the atomic variants and CAS stay silent.
package atomicbaddr

import "skyway/internal/heap"

func bad(h *heap.Heap, a heap.Addr) uint64 {
	h.SetBaddr(a, 1)    // want `non-atomic baddr access`
	read := h.Baddr     // want `non-atomic baddr access`
	return h.Baddr(a) + // want `non-atomic baddr access`
		read(a)
}

func good(h *heap.Heap, a heap.Addr) uint64 {
	h.AtomicSetBaddr(a, 1)
	if h.CasBaddr(a, 1, 2) {
		return h.AtomicBaddr(a)
	}
	return h.AtomicBaddr(a)
}
