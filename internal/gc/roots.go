package gc

import "skyway/internal/heap"

// Roots is a root table: a growable run of GC root slots the collector
// treats as one unit — a scavenge forwards its slots in place, a full GC
// marks through them and redirects them. It is what holds a task's records:
// N records cost one pointer-free Go slice, where N Handles cost N Go
// objects for the Go collector to allocate and trace. A Handle remains the
// tool for a single long-lived root.
//
// The collector knows a table exactly while it holds slots, so an empty one
// costs a collection nothing and its owner (a decoder, an executor) can keep
// it for reuse without a lifecycle hook. Like the handle list, a table is
// confined to its runtime's goroutine; concurrent readers of At are fine
// while nothing allocates.
type Roots struct {
	coll  *Collector
	slots []heap.Addr
	idx   int // position in coll.tables; -1 while empty
}

// NewRoots returns an empty root table on c.
func (c *Collector) NewRoots() *Roots { return &Roots{coll: c, idx: -1} }

// Len returns the number of live slots.
func (r *Roots) Len() int { return len(r.slots) }

// Append adds a root slot holding a and returns its index.
func (r *Roots) Append(a heap.Addr) int {
	if r.idx < 0 {
		r.idx = len(r.coll.tables)
		r.coll.tables = append(r.coll.tables, r)
	}
	r.slots = append(r.slots, a)
	return len(r.slots) - 1
}

// At returns the current address held in slot i. Like Handle.Addr, the
// result goes stale at the next allocation; re-read it afterwards.
func (r *Roots) At(i int) heap.Addr { return r.slots[i] }

// Slots returns the live slots as the collector sees them: the slice is the
// table's own storage, so its elements stay current across collections for
// as long as the table is neither appended to nor truncated.
func (r *Roots) Slots() []heap.Addr { return r.slots }

// Truncate drops every slot from index n on — the rollback of a failed
// decode to the mark taken before the attempt. Capacity is kept.
func (r *Roots) Truncate(n int) {
	r.slots = r.slots[:n]
	if n == 0 && r.idx >= 0 {
		t := r.coll.tables
		last := t[len(t)-1]
		t[r.idx], last.idx = last, r.idx
		t[len(t)-1] = nil
		r.coll.tables = t[:len(t)-1]
		r.idx = -1
	}
}

// Release drops every slot; the table stays usable and keeps its capacity.
func (r *Roots) Release() { r.Truncate(0) }
