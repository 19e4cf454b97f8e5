package gc

import (
	"time"

	"skyway/internal/heap"
	"skyway/internal/obs"
)

// FullGC performs a stop-the-world full collection: mark from all roots,
// then Lisp-2 sliding compaction of the old generation, with eden and
// from-space survivors evacuated into the old generation (everything that
// survives a full GC is tenured, as in Parallel Old). Pinned Skyway input
// buffers are unconditionally live, never move, and have their outgoing
// references rewritten like any other object.
func (c *Collector) FullGC() {
	c.stats.FullGCs++
	ctrFullGCs.Inc()
	// Attribution: a full GC reached through a scavenge headroom bail is
	// one promotion-triggered pause, not two overlapping collections (the
	// bailed scavenge recorded nothing).
	cause := "explicit"
	if c.promotionFallback {
		cause = "promotion"
		c.stats.PromotionFullGCs++
		c.promotionFallback = false
	}
	pauseStart := time.Now()
	compacted0 := c.stats.CompactedB
	h := c.h
	if c.VerifyHook != nil {
		c.VerifyHook("before-full-gc")
	}

	// --- mark ----------------------------------------------------------
	var stack []heap.Addr
	mark := func(a heap.Addr) {
		// Tagged arena addresses are not heap memory: the object graph they
		// name lives outside the collector's purview, costs no mark/compact
		// work, and is reclaimed wholesale when its region retires.
		if a == heap.Null || heap.IsArenaAddr(a) || h.Marked(a) {
			return
		}
		h.SetMarked(a, true)
		stack = append(stack, a)
	}
	for _, hd := range c.handles {
		if hd != nil && hd.addr != heap.Null {
			mark(hd.addr)
		}
	}
	for _, t := range c.tables {
		for _, a := range t.slots {
			mark(a)
		}
	}
	c.eachPinnedObject(mark)
	// One slot closure per pass, reading the object being scanned from
	// owner: a closure per object would be a Go allocation each.
	var owner heap.Addr
	markSlot := func(off uint32) { mark(heap.Addr(h.Load(owner, off, refKind))) }
	for len(stack) > 0 {
		owner = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c.meta.RefSlots(owner, markSlot)
	}

	// --- compute forwarding addresses -----------------------------------
	// Live old-gen objects slide toward Old.Start; live young objects are
	// appended after them. A side table keeps the planned destinations so
	// mark words (which hold cached hashcodes) stay intact.
	type move struct {
		from, to heap.Addr
		size     uint32
	}
	fwd := make(map[heap.Addr]heap.Addr)
	var plans []move
	dest := h.Old.Start
	overflow := false
	plan := func(a heap.Addr) {
		if !h.Marked(a) || overflow {
			return
		}
		size := c.meta.ObjectSize(a)
		if uint64(dest)+uint64(size) > uint64(h.Old.End) {
			overflow = true
			return
		}
		fwd[a] = dest
		plans = append(plans, move{from: a, to: dest, size: size})
		dest = dest.Add(size)
	}
	// Old-gen compaction always fits (sliding cannot grow the region).
	eachRegionObject(h, &h.Old, c.meta, plan)
	oldPlans := len(plans)
	// Young evacuation is all-or-nothing: if the survivors do not fit in
	// the old generation, leave the young generation in place — the heap
	// stays valid and the triggering allocation fails with OOM instead of
	// the collector dying.
	eachRegionObject(h, &h.Eden, c.meta, func(a heap.Addr) { plan(a) })
	eachRegionObject(h, &h.From, c.meta, func(a heap.Addr) { plan(a) })
	evacuate := !overflow
	if !evacuate {
		for _, m := range plans[oldPlans:] {
			delete(fwd, m.from)
		}
		plans = plans[:oldPlans]
	}

	// --- update references ----------------------------------------------
	redirectSlot := func(off uint32) {
		ref := heap.Addr(h.Load(owner, off, refKind))
		if to, moved := fwd[ref]; moved {
			h.Store(owner, off, refKind, uint64(to))
		}
	}
	redirect := func(a heap.Addr) {
		owner = a
		c.meta.RefSlots(a, redirectSlot)
	}
	eachRegionObject(h, &h.Old, c.meta, func(a heap.Addr) {
		if h.Marked(a) {
			redirect(a)
		}
	})
	eachRegionObject(h, &h.Eden, c.meta, func(a heap.Addr) {
		if h.Marked(a) {
			redirect(a)
		}
	})
	eachRegionObject(h, &h.From, c.meta, func(a heap.Addr) {
		if h.Marked(a) {
			redirect(a)
		}
	})
	c.eachPinnedObject(redirect)
	for _, hd := range c.handles {
		if hd == nil {
			continue
		}
		if to, moved := fwd[hd.addr]; moved {
			hd.addr = to
		}
	}
	for _, t := range c.tables {
		for i, a := range t.slots {
			if to, moved := fwd[a]; moved {
				t.slots[i] = to
			}
		}
	}

	// --- move ------------------------------------------------------------
	// The plan list was built in walk order (old gen first, then young
	// evacuees), so every destination precedes or equals its source and
	// sliding copies never clobber a not-yet-moved live object. The list —
	// not a region re-walk — drives the moves, because a slide may stomp
	// the headers of dead objects a re-walk would need for skipping.
	// The plan is also the compacted generation's bump order: allocating it
	// again from the bottom lands every object at its destination, m.to,
	// and rebuilds the object-start table.
	spanned := h.Old.Used()
	h.Old.Reset()
	var moved uint64
	for _, m := range plans {
		h.AllocOld(m.size)
		if m.to != m.from {
			h.CopyWords(m.to, m.from, m.size)
		}
		moved += uint64(m.size)
	}
	c.stats.CompactedB += moved

	if evacuate {
		h.Eden.Reset()
		h.From.Reset()
		h.To.Reset()
	} else {
		// Young objects stayed in place; just clear their marks.
		clearYoung := func(a heap.Addr) { h.SetMarked(a, false) }
		eachRegionObject(h, &h.Eden, c.meta, clearYoung)
		eachRegionObject(h, &h.From, c.meta, clearYoung)
	}

	// Clear mark bits on survivors and reset ages (tenured now), and rebuild
	// the tenured cards from the compacted heap: every card is cleaned, then
	// each survivor left pointing young — possible only when the young
	// generation stayed in place — has its card dirtied. The old cards
	// described where objects were before they slid.
	h.CleanCards(h.Old.Start, spanned)
	for _, p := range c.pinned {
		if !p.freed && p.Parsed {
			h.CleanCards(p.Start, uint64(p.Size))
		}
	}
	holdsYoung := c.youngTest()
	remember := func(a heap.Addr) {
		if !evacuate && holdsYoung(a) {
			h.DirtyCard(a)
		}
	}
	eachRegionObject(h, &h.Old, c.meta, func(a heap.Addr) {
		h.SetMarked(a, false)
		h.SetAge(a, 0)
		remember(a)
	})
	c.eachPinnedObject(func(a heap.Addr) {
		h.SetMarked(a, false)
		remember(a)
	})
	if c.VerifyHook != nil {
		c.VerifyHook("after-full-gc")
	}
	c.recordPause("full-gc", cause, pauseStart,
		obs.I64("compacted_bytes", int64(c.stats.CompactedB-compacted0)),
		obs.I64("evacuated", boolArg(evacuate)))
}

// eachRegionObject walks region r linearly. Valid only for bump-allocated
// regions whose every object is walkable via meta.
func eachRegionObject(h *heap.Heap, r *heap.Region, meta Meta, fn func(a heap.Addr)) {
	a := r.Start
	for a < r.Top {
		size := meta.ObjectSize(a)
		fn(a)
		a = a.Add(size)
	}
}
