// Package verify implements the heap and buffer invariant verifier — the
// repro's analogue of HotSpot's VerifyBeforeGC/VerifyAfterGC. It walks the
// live regions (eden, from-space survivor, old generation) and the parsed
// Skyway input-buffer chunks and checks the invariants the paper states but
// ordinary execution never re-derives:
//
//   - header sanity: every klass word resolves to a loaded class, the mark
//     word's cached hash is a valid 31-bit identity hash, no forwarding tag
//     or GC mark bit survives outside a collection, and the baddr word is
//     either zero or a well-formed in-flight claim;
//   - reference sanity: every reference slot holds Null or the start
//     address of a live object;
//   - card-table soundness: every tenured object (old generation or parsed
//     input buffer) holding a young pointer is covered by a dirty card, so
//     the next scavenge cannot miss the edge;
//   - the object-start table: each old-generation card names the object
//     the linear walk finds covering its first byte, where the scavenger's
//     walk of that card begins;
//   - buffer relativization (CheckChunk): pre-absolutization images carry
//     only in-range relative offsets.
//
// Verification is opt-in via the SKYWAY_VERIFY environment variable (tests
// flip it with SetEnabled); when enabled, every vm runtime created wires
// Verify into its collector's before/after hooks, and every core writer and
// reader opened enables cheap per-object debug assertions.
package verify

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"

	"skyway/internal/heap"
	"skyway/internal/klass"
)

// enabled holds the process-wide verification switch, seeded from the
// SKYWAY_VERIFY environment variable.
var enabled atomic.Bool

func init() {
	v := os.Getenv("SKYWAY_VERIFY")
	enabled.Store(v != "" && v != "0")
}

// Enabled reports whether heap verification is switched on for the process.
func Enabled() bool { return enabled.Load() }

// SetEnabled flips the process-wide verification switch and returns the
// previous value; tests use it to exercise both modes deterministically.
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// Kind classifies a Violation.
type Kind string

// Violation kinds, one per invariant class.
const (
	// BadKlass: an object's klass word does not resolve to a loaded class.
	BadKlass Kind = "bad-klass"
	// BadMark: the mark word carries an invalid cached hash, or a
	// forwarding tag / GC mark bit outside a collection.
	BadMark Kind = "bad-mark"
	// BadBaddr: the Skyway baddr word is neither zero nor a well-formed
	// in-flight claim.
	BadBaddr Kind = "bad-baddr"
	// BadWalk: a region walk could not complete (zero/unaligned object
	// size, or an object overrunning its region).
	BadWalk Kind = "bad-walk"
	// DanglingRef: a reference slot points at something that is not the
	// start of a live object.
	DanglingRef Kind = "dangling-ref"
	// MissingCard: a tenured object holds a young pointer but no card
	// covering it is dirty, so a scavenge would miss the edge.
	MissingCard Kind = "missing-card"
	// BadBufferRel: a pre-absolutization buffer image carries a reference
	// that is not a well-formed relative offset into the flushed stream.
	BadBufferRel Kind = "bad-buffer-rel"
	// BadObjectStart: the old generation's object-start table does not name
	// the object a linear walk finds covering a card's first byte, so the
	// scavenger's dirty-card scan would start that card's walk mid-object
	// or skip objects.
	BadObjectStart Kind = "bad-object-start"
)

// Violation is one invariant breach found by the verifier.
type Violation struct {
	Kind Kind
	// Addr is the address of the offending object (the owner, for
	// reference-slot violations).
	Addr heap.Addr
	// Off is the byte offset of the offending slot within the object, for
	// reference violations; 0 otherwise.
	Off    uint32
	Detail string
}

func (v Violation) String() string {
	if v.Off != 0 {
		return fmt.Sprintf("%s at %#x+%d: %s", v.Kind, uint64(v.Addr), v.Off, v.Detail)
	}
	return fmt.Sprintf("%s at %#x: %s", v.Kind, uint64(v.Addr), v.Detail)
}

// Meta supplies the object-model knowledge the verifier needs; it is
// implemented by the vm Runtime. It deliberately mirrors gc.Meta (plus klass
// resolution and pinned-chunk enumeration) so the verifier stays decoupled
// from the class loader.
type Meta interface {
	// ObjectSize returns the padded byte size of the live object at a.
	ObjectSize(a heap.Addr) uint32
	// RefSlots invokes fn with the byte offset of every reference slot of
	// the live object at a.
	RefSlots(a heap.Addr, fn func(off uint32))
	// ValidKlassWord reports whether a live object's klass word resolves
	// to a loaded class.
	ValidKlassWord(w uint64) bool
	// EachPinned invokes fn for every live Skyway input-buffer chunk.
	EachPinned(fn func(start heap.Addr, size uint32, parsed bool))
}

// walkedObject records one object found during the region walk, with enough
// context for the reference/card passes.
type walkedObject struct {
	addr    heap.Addr
	size    uint32
	tenured bool // old generation or parsed input buffer: card rules apply
}

// Verify checks every invariant over the heap's live regions and parsed
// input-buffer chunks and returns the violations found (nil when the heap is
// sound). Unparsed chunks are skipped — their images still carry global type
// IDs and relative pointers and are audited separately via CheckChunk.
func Verify(h *heap.Heap, meta Meta) []Violation {
	var vs []Violation
	starts := make(map[heap.Addr]struct{}, 1024)
	var objs []walkedObject

	walk := func(region string, start, end heap.Addr, tenured bool) {
		a := start
		for a < end {
			w := h.KlassWord(a)
			if !meta.ValidKlassWord(w) {
				vs = append(vs, Violation{Kind: BadKlass, Addr: a, Detail: fmt.Sprintf(
					"klass word %#x does not resolve to a loaded class; aborting %s walk", w, region)})
				return
			}
			size := meta.ObjectSize(a)
			if size == 0 || size%klass.WordSize != 0 {
				vs = append(vs, Violation{Kind: BadWalk, Addr: a, Detail: fmt.Sprintf(
					"object size %d is not a positive word multiple; aborting %s walk", size, region)})
				return
			}
			next := a.Add(size)
			if next > end {
				vs = append(vs, Violation{Kind: BadWalk, Addr: a, Detail: fmt.Sprintf(
					"object of size %d overruns %s end %#x", size, region, uint64(end))})
				return
			}
			starts[a] = struct{}{}
			objs = append(objs, walkedObject{addr: a, size: size, tenured: tenured})
			vs = checkHeader(h, a, vs)
			a = next
		}
	}

	walk("eden", h.Eden.Start, h.Eden.Top, false)
	walk("from-space", h.From.Start, h.From.Top, false)
	walk("old-gen", h.Old.Start, h.Old.Top, true)
	meta.EachPinned(func(start heap.Addr, size uint32, parsed bool) {
		if parsed {
			walk("input-buffer chunk", start, start.Add(size), true)
		}
	})

	for _, o := range objs {
		if h.InOld(o.addr) {
			vs = checkObjectStarts(h, o, vs)
		}
		meta.RefSlots(o.addr, func(off uint32) {
			ref := heap.Addr(h.Load(o.addr, off, klass.Ref))
			if ref == heap.Null {
				return
			}
			// Tagged arena handles point outside the managed heap by
			// design: promoted objects may reference still-relativized
			// arena neighbours, and those edges are resolved by the vm
			// accessor layer, not the heap walk.
			if heap.IsArenaAddr(ref) {
				return
			}
			if _, ok := starts[ref]; !ok {
				vs = append(vs, Violation{Kind: DanglingRef, Addr: o.addr, Off: off, Detail: fmt.Sprintf(
					"reference %#x is not the start of a live object", uint64(ref))})
				return
			}
			// The scavenger finds old-to-young edges by scanning tenured
			// objects whose span overlaps a dirty card; an undirty young
			// pointer would silently survive pointing at reclaimed space.
			if o.tenured && h.InYoung(ref) && !h.RangeDirty(o.addr, o.size) {
				vs = append(vs, Violation{Kind: MissingCard, Addr: o.addr, Off: off, Detail: fmt.Sprintf(
					"tenured object holds young pointer %#x but no covering card is dirty", uint64(ref))})
			}
		})
	}
	return vs
}

// checkObjectStarts audits the object-start table entries of the old
// generation object o: every card whose first old-generation byte o covers
// must name o.
func checkObjectStarts(h *heap.Heap, o walkedObject, vs []Violation) []Violation {
	for c := uint64(o.addr) / heap.CardSize; c <= (uint64(o.addr)+uint64(o.size)-1)/heap.CardSize; c++ {
		first := max(heap.Addr(c*heap.CardSize), h.Old.Start)
		if first < o.addr {
			continue // an earlier object covers the card's first byte
		}
		if got := h.OldObjectStart(first); got != o.addr {
			vs = append(vs, Violation{Kind: BadObjectStart, Addr: o.addr, Detail: fmt.Sprintf(
				"object-start table names %#x for the card at %#x", uint64(got), uint64(first))})
		}
	}
	return vs
}

// checkHeader audits one object's mark and baddr words.
func checkHeader(h *heap.Heap, a heap.Addr, vs []Violation) []Violation {
	if _, fwd := h.Forwarded(a); fwd {
		vs = append(vs, Violation{Kind: BadMark, Addr: a, Detail: "forwarding tag set outside a scavenge"})
		// The mark word is a forwarding pointer, not a header: the hash
		// and mark-bit checks below would read garbage.
		return vs
	}
	if h.Marked(a) {
		vs = append(vs, Violation{Kind: BadMark, Addr: a, Detail: "GC mark bit set outside a full collection"})
	}
	if hash, hashed := h.HashOf(a); hashed && hash > 0x7FFFFFFF {
		vs = append(vs, Violation{Kind: BadMark, Addr: a, Detail: fmt.Sprintf(
			"cached hash %#x exceeds the 31-bit identity-hash range", hash)})
	}
	if h.Layout().Baddr {
		if v := h.AtomicBaddr(a); v != 0 {
			if heap.BaddrPhase(v) == 0 {
				vs = append(vs, Violation{Kind: BadBaddr, Addr: a, Detail: fmt.Sprintf(
					"nonzero baddr word %#x has zero phase: not a cleared word, not an in-flight claim", v)})
			} else if heap.BaddrRel(v) < heap.RelBias {
				vs = append(vs, Violation{Kind: BadBaddr, Addr: a, Detail: fmt.Sprintf(
					"baddr word %#x carries relative address %#x below the null bias", v, heap.BaddrRel(v))})
			}
		}
	}
	return vs
}

// Must panics with a formatted report when vs is non-empty. The GC hooks use
// it so that a corrupted heap stops the run at the first collection that
// observes it rather than corrupting further.
func Must(stage string, vs []Violation) {
	if len(vs) == 0 {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %s: %d violation(s):", stage, len(vs))
	for _, v := range vs {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	panic(b.String())
}
