// Package analyzers holds the skywayvet checks: project-specific invariants
// of the simulated-heap architecture that the compiler cannot enforce.
// Each analyzer encodes one rule the Skyway design depends on:
//
//   - addrarith: heap.Addr values are derived, never computed ad hoc;
//   - rawslab: little-endian is the slab byte order, confined to the heap
//     and Skyway-core layers — the network wire format is big-endian/varint;
//   - staleaddr: a raw heap.Addr held live across a call that can trigger a
//     collection is a stale pointer once the copying GC moves the object —
//     root it in a gc.Handle instead (the safepoint discipline);
//   - writebarrier: a reference store that bypasses Runtime.SetRef must
//     still dirty the card table, or scavenges miss old-to-young edges;
//   - wiretaint: integers decoded off the wire must pass a full-width
//     bounds check before sizing an allocation, indexing, or offsetting a
//     heap address — truncated-width comparisons do not count;
//   - atomicmix: memory accessed through sync/atomic anywhere in the
//     module must never be loaded or stored plainly elsewhere.
//
// That baddr header words, which concurrent senders claim by CAS, are only
// ever accessed atomically needs no analyzer: heap.Heap has no plain baddr
// accessor to call.
package analyzers

import (
	"go/types"

	"skyway/internal/analyzers/framework"
)

// All returns every skywayvet analyzer, in the order the multichecker runs
// them.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{AddrArith, RawSlab, StaleAddr, WriteBarrier, WireTaint, AtomicMix}
}

const (
	heapPkg = "skyway/internal/heap"
	corePkg = "skyway/internal/core"
	gcPkg   = "skyway/internal/gc"
)

// exemptions is the single source of truth for which packages may violate
// which check. The heap and Skyway core own the slab representation (raw
// address math, slab byte order); the collector and the heap manipulate raw
// addresses while the world is stopped, so safepoint and barrier rules do not
// apply beneath them.
var exemptions = map[string]map[string]bool{
	"addrarith":    {heapPkg: true, corePkg: true},
	"rawslab":      {heapPkg: true, corePkg: true},
	"staleaddr":    {heapPkg: true, gcPkg: true},
	"writebarrier": {heapPkg: true, gcPkg: true},
	"atomicmix":    {heapPkg: true},
}

// exemptPkg reports whether the pass's package is allowlisted for the
// pass's analyzer.
func exemptPkg(p *framework.Pass) bool {
	return exemptions[p.Analyzer.Name][p.Pkg.Path()]
}

// isHeapAddr reports whether t is (an alias of) skyway/internal/heap.Addr.
func isHeapAddr(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Addr" && obj.Pkg() != nil && obj.Pkg().Path() == heapPkg
}

// namedRecv unwraps a method receiver type to its named type, through one
// level of pointer.
func namedRecv(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isHeapMethod reports whether sel resolves to a method named name on
// heap.Heap (through a pointer receiver or not).
func isHeapMethod(sel *types.Selection, name string) bool {
	if sel == nil || sel.Kind() != types.MethodVal {
		return false
	}
	obj := sel.Obj()
	if obj.Name() != name || obj.Pkg() == nil || obj.Pkg().Path() != heapPkg {
		return false
	}
	recv := namedRecv(sel.Recv())
	return recv != nil && recv.Obj().Name() == "Heap"
}
