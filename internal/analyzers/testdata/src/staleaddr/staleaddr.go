// Package staleaddr is the analysis fixture for the staleaddr analyzer:
// raw heap.Addr values held live across calls that may trigger a
// collection.
package staleaddr

import (
	"skyway/internal/gc"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/vm"
)

// A raw Addr live across an allocation entry point is the canonical bug.
func badAcross(rt *vm.Runtime, k *klass.Klass, obj heap.Addr) heap.Addr {
	other := rt.MustNew(k) // want `heap.Addr obj is live across the call to \(\*skyway/internal/vm\.Runtime\)\.MustNew in badAcross`
	_ = rt.GetInt(obj, k.FieldByName("f"))
	return other
}

// Calls through function values are conservatively treated as allocating.
func badDynamic(fn func(), rt *vm.Runtime, k *klass.Klass, obj heap.Addr) int64 {
	fn() // want `heap.Addr obj is live across the call to function value \(assumed to allocate\)`
	return rt.GetInt(obj, k.FieldByName("f"))
}

// Interface calls resolve by method name against the known-mayGC set.
type collector interface{ Scavenge(int) bool }

func badIface(c collector, rt *vm.Runtime, k *klass.Klass, obj heap.Addr) int64 {
	c.Scavenge(0) // want `heap.Addr obj is live across the call to interface method Scavenge`
	return rt.GetInt(obj, k.FieldByName("f"))
}

// Loop-carried: the node address survives each callback into the next
// pointer chase — the HashMapEach shape.
func badLoop(rt *vm.Runtime, next *klass.Field, head heap.Addr, fn func(heap.Addr)) {
	for n := head; n != heap.Null; n = rt.GetRef(n, next) {
		fn(n) // want `heap.Addr n is live across the call to function value \(assumed to allocate\)`
	}
}

// Within one call expression, an earlier operand's Addr is loaded before a
// later operand allocates.
func badIntraOrder(rt *vm.Runtime, k *klass.Klass, obj heap.Addr) {
	use(obj, rt.MustNew(k)) // want `heap.Addr obj is evaluated earlier in this call expression`
}

func use(a, b heap.Addr) {}

// Rooting in a handle and re-deriving after the allocation is the fix.
func goodPinned(rt *vm.Runtime, k *klass.Klass, obj heap.Addr) heap.Addr {
	h := rt.Pin(obj)
	other := rt.MustNew(k)
	_ = rt.GetInt(h.Addr(), k.FieldByName("f"))
	h.Release()
	return other
}

// A root table roots its slots, not the copies read out of them: an address
// taken with Roots.At is as raw as any other, while re-reading the slot
// after the allocation is the table's form of the fix.
func badTableRead(rt *vm.Runtime, k *klass.Klass, tab *gc.Roots) heap.Addr {
	rec := tab.At(0)
	other := rt.MustNew(k) // want `heap.Addr rec is live across the call to \(\*skyway/internal/vm\.Runtime\)\.MustNew in badTableRead, which may trigger a collection and move the object; root it in a gc.Handle \(Runtime.Pin\) or a gc.Roots table`
	_ = rt.GetInt(rec, k.FieldByName("f"))
	return other
}

func goodTableReread(rt *vm.Runtime, k *klass.Klass, tab *gc.Roots, obj heap.Addr) heap.Addr {
	slot := tab.Append(obj)
	other := rt.MustNew(k)
	_ = rt.GetInt(tab.At(slot), k.FieldByName("f"))
	return other
}

// A local closure bound once to a literal devirtualizes: its body makes no
// mayGC call, so holding obj across it is fine.
func goodLocalClosure(rt *vm.Runtime, k *klass.Klass, obj heap.Addr) int64 {
	get := func(a heap.Addr) int64 { return rt.GetInt(a, k.FieldByName("f")) }
	x := get(obj)
	y := get(obj)
	return x + y
}

// Re-deriving the address before each use keeps nothing live across the
// allocation.
func goodDeadAfter(rt *vm.Runtime, k *klass.Klass, obj heap.Addr) heap.Addr {
	_ = rt.GetInt(obj, k.FieldByName("f"))
	return rt.MustNew(k)
}

// A reviewed suppression silences the finding on the next line.
func suppressed(rt *vm.Runtime, k *klass.Klass, obj heap.Addr) heap.Addr {
	//skyway:allow staleaddr — fixture: obj models an address in pinned buffer space
	other := rt.MustNew(k)
	_ = rt.GetInt(obj, k.FieldByName("f"))
	return other
}

// --- arena promotion contract -------------------------------------------------
//
// The arena's copy-on-write promotion funnel allocates in pinned buffer
// space (Heap.AllocBuffer), which never triggers a collection. That is a
// design contract the whole accessor layer rests on: typed setters promote
// through it, so raw addresses stay valid across a setter, across Promote
// itself, and across AllocBuffer — a write barrier is not a safepoint. If
// promotion ever routes through a young-generation allocation these cases
// start failing, loudly flagging every setter in the module as mayGC.

func goodSetterAcross(rt *vm.Runtime, k *klass.Klass, obj, other heap.Addr) int64 {
	rt.SetInt(other, k.FieldByName("f"), 7)
	return rt.GetInt(obj, k.FieldByName("f"))
}

func goodPromoteAcross(rt *vm.Runtime, k *klass.Klass, obj, other heap.Addr) int64 {
	if _, err := rt.Promote(other); err != nil {
		return 0
	}
	return rt.GetInt(obj, k.FieldByName("f"))
}

func goodAllocBufferAcross(rt *vm.Runtime, k *klass.Klass, obj heap.Addr) heap.Addr {
	dst := rt.Heap.AllocBuffer(64)
	_ = rt.GetInt(obj, k.FieldByName("f"))
	return dst
}
