// Package gc implements the collector for the simulated managed heap: a
// generational copying scavenger over eden/survivor spaces plus a Lisp-2
// mark-compact full collection of the old generation — a single-threaded
// stand-in for the Parallel Scavenge collector the paper modifies (§4).
//
// The collector understands Skyway input buffers: ranges in the heap's
// pinned buffer space are registered with the collector, never move, act as
// GC roots once parsed (they are live until explicitly freed), and have
// their dirty cards scanned for pointers into the moving generations.
package gc

import (
	"fmt"
	"time"

	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/obs"
)

// Process-wide collection counters, exported on /metrics. Per-collector
// accounting lives in Stats; these aggregate across every runtime in the
// process.
var (
	ctrScavenges = obs.NewCounter("skyway_gc_scavenges_total", "Young (copying) collections across all runtimes.")
	ctrFullGCs   = obs.NewCounter("skyway_gc_full_gcs_total", "Full mark-compact collections across all runtimes.")
	ctrPauseNS   = obs.NewCounter("skyway_gc_pause_ns_total", "Total stop-the-world collection pause time in nanoseconds.")
	ctrPromoted  = obs.NewCounter("skyway_gc_promoted_bytes_total", "Bytes promoted from the young to the old generation.")
	ctrCards     = obs.NewCounter("skyway_gc_cards_scanned_total", "Dirty cards scanned for old-to-young roots during scavenges.")
)

// Meta supplies the object-model knowledge the collector needs. It is
// implemented by the vm runtime, breaking what would otherwise be an import
// cycle between the collector and the class loader.
type Meta interface {
	// ObjectSize returns the padded byte size of the object at a.
	ObjectSize(a heap.Addr) uint32
	// RefSlots invokes fn with the byte offset of every reference slot of
	// the object at a (instance fields or array elements).
	RefSlots(a heap.Addr, fn func(off uint32))
}

// Handle is a GC root slot. Application code holds objects through handles;
// the collector rewrites handle targets when objects move. A handle is a Go
// object of its own: hold records in bulk through a Roots table instead.
type Handle struct {
	addr heap.Addr
	coll *Collector
	idx  int
}

// Addr returns the current address of the handled object.
func (h *Handle) Addr() heap.Addr { return h.addr }

// Set retargets the handle.
func (h *Handle) Set(a heap.Addr) { h.addr = a }

// Release drops the root; the handle must not be used afterwards.
func (h *Handle) Release() {
	if h.coll != nil {
		h.coll.release(h.idx)
		h.coll = nil
	}
}

// PinnedRange is a registered Skyway input-buffer chunk in buffer space.
type PinnedRange struct {
	Start heap.Addr
	Size  uint32
	// Parsed becomes true once the receiver has absolutized the chunk;
	// before that the collector treats the range as opaque bytes.
	Parsed bool
	freed  bool
}

// Stats accumulates collection counts for tests and reporting.
type Stats struct {
	Scavenges  int
	FullGCs    int
	PromotedB  uint64
	CopiedB    uint64
	CompactedB uint64
	// HandleCount is the number of live root slots: handles plus the slots
	// of every root table.
	HandleCount int

	// PromotionFullGCs counts the FullGCs attributed to a scavenge that
	// bailed for lack of promotion headroom — the nested-collection path.
	// Such a pair is ONE pause (the full GC's); the bailed scavenge does
	// no work and records no pause, so pause accounting stays disjoint.
	PromotionFullGCs int

	// Pauses counts stop-the-world collection pauses; ScavengePause and
	// FullGCPause partition the total pause time (they never overlap),
	// and MaxPause is the longest single pause.
	Pauses        int
	ScavengePause time.Duration
	FullGCPause   time.Duration
	MaxPause      time.Duration

	// CardsScanned counts the dirty cards whose objects were scanned for
	// old-to-young roots during scavenges.
	CardsScanned uint64

	// PinnedScanned counts pinned input-buffer objects walked as GC roots:
	// all of them by a full GC, those on dirty cards by a scavenge.
	// On the arena decode path this stays at zero no matter how many bytes
	// are resident off-heap — the measurable statement of "the collector
	// never sees arena memory".
	PinnedScanned uint64
}

// TotalPause returns the summed stop-the-world time.
func (s Stats) TotalPause() time.Duration { return s.ScavengePause + s.FullGCPause }

// Merge accumulates other into s (cluster-wide GC accounting).
func (s *Stats) Merge(other Stats) {
	s.Scavenges += other.Scavenges
	s.FullGCs += other.FullGCs
	s.PromotedB += other.PromotedB
	s.CopiedB += other.CopiedB
	s.CompactedB += other.CompactedB
	s.HandleCount += other.HandleCount
	s.PromotionFullGCs += other.PromotionFullGCs
	s.Pauses += other.Pauses
	s.ScavengePause += other.ScavengePause
	s.FullGCPause += other.FullGCPause
	if other.MaxPause > s.MaxPause {
		s.MaxPause = other.MaxPause
	}
	s.CardsScanned += other.CardsScanned
	s.PinnedScanned += other.PinnedScanned
}

// Collector owns GC state for one heap.
type Collector struct {
	h    *heap.Heap
	meta Meta

	handles []*Handle
	free    []int
	tables  []*Roots // root tables holding at least one slot

	pinned    []*PinnedRange
	freedPins int

	// TenureAge is the survival count after which a young object is
	// promoted to the old generation.
	TenureAge int

	// VerifyHook, when non-nil, runs before and after every collection
	// with a stage tag ("before-scavenge", "after-full-gc", ...). The vm
	// runtime wires the heap verifier here when SKYWAY_VERIFY is enabled —
	// the repro's VerifyBeforeGC/VerifyAfterGC.
	VerifyHook func(stage string)

	// Trace receives one span per collection pause ("gc"/"scavenge",
	// "gc"/"full-gc") when tracing is on; the vm runtime wires its own
	// tracer here. Nil is fine (spans no-op).
	Trace *obs.Tracer

	// promotionFallback marks that the last scavenge bailed for lack of
	// promotion headroom, so the next FullGC is attributed to promotion
	// pressure rather than an explicit request — and the pair reports one
	// pause, not two overlapping ones.
	promotionFallback bool

	stats Stats
}

// recordPause folds one finished stop-the-world pause into the statistics,
// counters, and trace. Exactly one call per collection that did work: a
// scavenge that bailed up front records nothing.
func (c *Collector) recordPause(kind, cause string, start time.Time, args ...obs.Arg) {
	pause := time.Since(start)
	c.stats.Pauses++
	if kind == "scavenge" {
		c.stats.ScavengePause += pause
	} else {
		c.stats.FullGCPause += pause
	}
	if pause > c.stats.MaxPause {
		c.stats.MaxPause = pause
	}
	ctrPauseNS.Add(pause.Nanoseconds())
	if c.Trace != nil && obs.Enabled() {
		args = append(args, obs.I64("cause_promotion", boolArg(cause == "promotion")))
		c.Trace.Emit("gc", kind, start, pause, args...)
	}
}

func boolArg(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// New builds a collector for h using meta for object walking.
func New(h *heap.Heap, meta Meta) *Collector {
	return &Collector{h: h, meta: meta, TenureAge: 2}
}

// Stats returns a copy of the collection statistics.
func (c *Collector) Stats() Stats {
	s := c.stats
	s.HandleCount = len(c.handles) - len(c.free)
	for _, t := range c.tables {
		s.HandleCount += len(t.slots)
	}
	return s
}

// TotalPause returns the summed stop-the-world time so far: Stats's
// TotalPause without the root-table walk Stats makes for HandleCount, cheap
// enough to read around every timed region of a task.
func (c *Collector) TotalPause() time.Duration { return c.stats.TotalPause() }

// NewHandle registers a new root pointing at a.
func (c *Collector) NewHandle(a heap.Addr) *Handle {
	h := &Handle{addr: a, coll: c}
	if n := len(c.free); n > 0 {
		h.idx = c.free[n-1]
		c.free = c.free[:n-1]
		c.handles[h.idx] = h
	} else {
		h.idx = len(c.handles)
		c.handles = append(c.handles, h)
	}
	return h
}

func (c *Collector) release(idx int) {
	c.handles[idx] = nil
	c.free = append(c.free, idx)
}

// Pin registers a Skyway input-buffer chunk with the collector.
func (c *Collector) Pin(start heap.Addr, size uint32) *PinnedRange {
	if !c.h.InBuffers(start) {
		panic(fmt.Sprintf("gc: pin outside buffer space at %#x", uint64(start)))
	}
	p := &PinnedRange{Start: start, Size: size}
	c.pinned = append(c.pinned, p)
	return p
}

// Unpin frees a pinned chunk: its objects stop being roots and the chunk's
// space returns to the buffer allocator for reuse (the explicit-free API of
// §3.2). The pinned list is swept lazily once freed entries accumulate.
func (c *Collector) Unpin(p *PinnedRange) {
	if p.freed {
		return
	}
	p.freed = true
	c.freedPins++
	c.h.FreeBufferRange(p.Start, p.Size)
	if c.freedPins*2 > len(c.pinned) && len(c.pinned) > 32 {
		live := c.pinned[:0]
		for _, q := range c.pinned {
			if !q.freed {
				live = append(live, q)
			}
		}
		c.pinned = live
		c.freedPins = 0
	}
}

// EachPinned invokes fn for every live pinned input-buffer chunk; the heap
// verifier enumerates chunks through this.
func (c *Collector) EachPinned(fn func(start heap.Addr, size uint32, parsed bool)) {
	for _, p := range c.pinned {
		if !p.freed {
			fn(p.Start, p.Size, p.Parsed)
		}
	}
}

// eachPinnedObject walks every object of every parsed, live pinned chunk.
func (c *Collector) eachPinnedObject(fn func(a heap.Addr)) {
	for _, p := range c.pinned {
		if p.freed || !p.Parsed {
			continue
		}
		a := p.Start
		end := p.Start.Add(p.Size)
		for a < end {
			c.stats.PinnedScanned++
			fn(a)
			a = a.Add(c.meta.ObjectSize(a))
		}
	}
}

// --- scavenge ---------------------------------------------------------------

// Scavenge performs a young collection: live eden/from-space objects are
// copied to to-space (or promoted to the old generation when aged out or
// when to-space is full), roots and old-to-young references found through
// the card table are updated, and the survivor spaces are swapped.
// Returns false — having done nothing — when the old generation cannot
// absorb a worst-case promotion of the entire young generation; the caller
// must run a full GC instead. Bailing up front keeps a scavenge atomic: a
// mid-copy promotion failure would leave half-forwarded objects behind.
func (c *Collector) Scavenge() bool {
	h := c.h
	if h.Old.Free() < h.Eden.Used()+h.From.Used() {
		// The caller will fall back to a full collection; mark it so that
		// FullGC attributes its (single) pause to promotion pressure. The
		// bail itself did no work and records no pause.
		c.promotionFallback = true
		return false
	}
	c.promotionFallback = false
	c.stats.Scavenges++
	ctrScavenges.Inc()
	pauseStart := time.Now()
	promoted0, copied0, cards0 := c.stats.PromotedB, c.stats.CopiedB, c.stats.CardsScanned
	if c.VerifyHook != nil {
		c.VerifyHook("before-scavenge")
	}

	// forward copies obj to its new home and returns the new address.
	var forward func(a heap.Addr) heap.Addr
	var scanQueue []heap.Addr
	forward = func(a heap.Addr) heap.Addr {
		if to, done := h.Forwarded(a); done {
			return to
		}
		size := c.meta.ObjectSize(a)
		age := h.Age(a)
		var dst heap.Addr
		if age+1 < c.TenureAge {
			dst = h.To.Alloc(uint64(size)) // Null when to-space is full
		}
		if dst == heap.Null {
			dst = h.AllocOld(size)
			if dst == heap.Null {
				// Ruled out by the headroom check above.
				panic("gc: promotion failure during scavenge")
			}
			c.stats.PromotedB += uint64(size)
		} else {
			c.stats.CopiedB += uint64(size)
		}
		h.CopyWords(dst, a, size)
		h.SetAge(dst, age+1)
		h.SetForwarded(a, dst)
		scanQueue = append(scanQueue, dst)
		return dst
	}

	// fixSlot forwards the young referent of owner's slot at off. A tenured
	// owner left pointing young — a promoted object whose referent was
	// copied to to-space — gets the card mark the mutator's barrier would
	// have given it, or the next scavenge could not find the edge.
	fixSlot := func(owner heap.Addr, off uint32) {
		ref := heap.Addr(h.Load(owner, off, refKind))
		if ref == heap.Null || !h.InYoung(ref) {
			return
		}
		to := forward(ref)
		h.Store(owner, off, refKind, uint64(to))
		if h.InYoung(to) && !h.InYoung(owner) {
			h.DirtyCard(owner)
		}
	}

	// Roots: handles and root tables.
	for _, hd := range c.handles {
		if hd == nil || hd.addr == heap.Null {
			continue
		}
		if h.InYoung(hd.addr) {
			hd.addr = forward(hd.addr)
		}
	}
	for _, t := range c.tables {
		for i, a := range t.slots {
			if h.InYoung(a) {
				t.slots[i] = forward(a)
			}
		}
	}
	// One slot closure for the collection, reading the object being
	// scanned from owner: a closure per object would be a Go allocation
	// each, since RefSlots is an interface call.
	var owner heap.Addr
	fixOwnerSlot := func(off uint32) { fixSlot(owner, off) }

	// Roots: tenured objects on dirty cards — the remembered set.
	c.scanTenured(func(a heap.Addr) {
		owner = a
		c.meta.RefSlots(a, fixOwnerSlot)
	})

	// Transitive closure.
	for len(scanQueue) > 0 {
		owner = scanQueue[len(scanQueue)-1]
		scanQueue = scanQueue[:len(scanQueue)-1]
		c.meta.RefSlots(owner, fixOwnerSlot)
	}

	// Reset young spaces: eden and from-space are now garbage; survivors
	// live in to-space. Swap semispaces.
	h.Eden.Reset()
	h.From.Reset()
	h.From, h.To = h.To, h.From
	c.cleanCards()
	if c.VerifyHook != nil {
		c.VerifyHook("after-scavenge")
	}
	promoted := c.stats.PromotedB - promoted0
	cards := c.stats.CardsScanned - cards0
	ctrPromoted.Add(int64(promoted))
	ctrCards.Add(int64(cards))
	c.recordPause("scavenge", "allocation", pauseStart,
		obs.I64("promoted_bytes", int64(promoted)),
		obs.I64("copied_bytes", int64(c.stats.CopiedB-copied0)),
		obs.I64("cards_scanned", int64(cards)))
	return true
}

// cardSpan returns how many card-table cards the object at a covers.
func cardSpan(a heap.Addr, size uint32) uint64 {
	return (uint64(a)+uint64(size)-1)/heap.CardSize - uint64(a)/heap.CardSize + 1
}

const refKind = klass.Ref

// tenuredRanges lists the spaces whose cards the scavenger reads: the old
// generation up to its current top, then every live parsed pinned chunk.
func (c *Collector) tenuredRanges() []heap.Region {
	rs := []heap.Region{{Start: c.h.Old.Start, End: c.h.Old.Top}}
	for _, p := range c.pinned {
		if !p.freed && p.Parsed {
			rs = append(rs, heap.Region{Start: p.Start, End: p.Start.Add(p.Size)})
		}
	}
	return rs
}

// scanTenured calls fn for every tenured object that overlaps a dirty card —
// the scavenge's old-to-young roots — counting the cards each covers and the
// pinned objects among them. Objects promoted while it runs lie above the top
// it started from; the closure scans those, once.
func (c *Collector) scanTenured(fn func(a heap.Addr)) {
	for i, r := range c.tenuredRanges() {
		c.eachDirtyObject(r, i == 0, func(a heap.Addr, size uint32) {
			c.stats.CardsScanned += cardSpan(a, size)
			if i > 0 {
				c.stats.PinnedScanned++
			}
			fn(a)
		})
	}
}

// cleanCards cleans every dirty tenured card that no longer covers a young
// pointer. Objects share 512-byte cards, so the test is per card, over every
// object overlapping it: an object still pointing young keeps all of its
// dirty cards, and only a card no such object overlaps is cleaned.
func (c *Collector) cleanCards() {
	holdsYoung := c.youngTest()
	rs := c.tenuredRanges()
	for i, r := range rs {
		c.eachDirtyObject(r, i == 0, func(a heap.Addr, size uint32) {
			if holdsYoung(a) {
				c.h.KeepCards(a, size)
			}
		})
	}
	c.h.SettleCards(rs)
}

// eachDirtyObject calls fn, in address order and once each, for every object
// of the tenured range r that overlaps a dirty card. It reads the card table,
// not the range: on each dirty card the walk begins at the object covering
// the card's first byte — from the object-start table when indexed (the old
// generation), otherwise by stepping forward from the range's own first
// object (a pinned chunk) — and it ends at the first object past the card.
func (c *Collector) eachDirtyObject(r heap.Region, indexed bool, fn func(a heap.Addr, size uint32)) {
	h := c.h
	a := r.Start // every object below a has been visited or passed over
	for {
		card, ok := h.NextDirtyCard(a, r.End)
		if !ok {
			return
		}
		if indexed {
			a = max(a, h.OldObjectStart(card))
		}
		end := min(card.Add(heap.CardSize), r.End)
		for a < end {
			size := c.meta.ObjectSize(a)
			if a.Add(size) > card {
				fn(a, size)
			}
			a = a.Add(size)
		}
	}
}

// youngTest returns a test of whether the object at a has a reference slot
// pointing into the young generation. Every object it tests shares one slot
// closure, so a collection makes one, not one per object.
func (c *Collector) youngTest() func(a heap.Addr) bool {
	var owner heap.Addr
	young := false
	slot := func(off uint32) {
		if ref := heap.Addr(c.h.Load(owner, off, refKind)); ref != heap.Null && c.h.InYoung(ref) {
			young = true
		}
	}
	return func(a heap.Addr) bool {
		owner, young = a, false
		c.meta.RefSlots(a, slot)
		return young
	}
}
