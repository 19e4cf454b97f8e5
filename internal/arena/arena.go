// Package arena provides mmap-backed off-heap regions for received Skyway
// segments. Chunks staged here stay relativized — no absolutization scan —
// and the managed collector never sees them: region memory is outside the
// word slab, outside the pinned-range root set, outside card scanning. The
// GC cost of holding gigabytes of received-but-unmutated shuffle data is
// therefore zero, which is the receive-side half of the GC-or-serialization
// squeeze the arena exists to escape.
//
// Lifecycle: a region is created per decoder stream, accumulates the
// stream's segments, and is reclaimed as a unit. The decoder owns it and
// releases it in Free, with a stage-epoch backstop: internal/dataflow binds
// shuffle-stage regions to the shuffle sequence number and retires them
// when the stage retires, so a leaked decoder cannot pin a region forever.
// Regions never bound to a stage (broadcast streams, whose decoded records
// stay live for the whole job) are exempt from the backstop and live until
// their decoder is freed.
package arena

import (
	"fmt"
	"sync"
	"sync/atomic"

	"skyway/internal/fault"
	"skyway/internal/heap"
	"skyway/internal/obs"
)

var (
	ctrRegions   = obs.NewCounter("skyway_arena_regions_total", "Arena regions created for received streams.")
	ctrReclaimed = obs.NewCounter("skyway_arena_regions_reclaimed_total", "Arena regions retired and unmapped.")
	ctrStaged    = obs.NewCounter("skyway_arena_bytes_staged_total", "Segment bytes staged into arena regions.")
	ctrPromoted  = obs.NewCounter("skyway_arena_promotions_total", "Arena object graph roots promoted into the managed heap on mutation.")
)

// segment is one committed wire segment: size bytes of relativized object
// images whose biased relative addresses span [startRel, startRel+size).
type segment struct {
	startRel uint64
	b        []byte
}

// Region holds the staged segments of one received stream. All methods are
// safe for concurrent use; reads after retirement panic rather than touch
// unmapped memory.
//
// The read path (Tail, PromotedAddr) sits under every field access of an
// arena-resident object, so it must not take locks: the segment table and
// the promotion map are published copy-on-write through atomic pointers,
// and mu only serializes the writers (Commit, SetPromoted, BindEpoch,
// retire) that build the next copy.
type Region struct {
	id    uint32
	space *Space

	// segs is the sorted, append-only segment table; readers load the
	// current snapshot with one atomic load.
	segs atomic.Pointer[[]segment]
	// promoted maps a root object's biased relative address to its mutated
	// copy in the managed heap's pinned buffer space (non-moving, so the
	// recorded address stays valid); each entry's free hook returns the
	// copy's storage when the region retires. nil until the first promotion,
	// so the common all-reads case is one pointer load.
	promoted atomic.Pointer[map[uint64]promotion]

	mu    sync.Mutex
	bytes uint64 // guarded by mu
	// epoch is the shuffle sequence number this region was bound to, or 0
	// for unbound (broadcast) regions exempt from the stage backstop.
	// Guarded by mu.
	epoch uint64

	retired atomic.Bool
}

// ID returns the region's arena-address region ID.
func (r *Region) ID() uint32 { return r.id }

// Bytes returns the total staged segment bytes resident in the region.
func (r *Region) Bytes() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// Retired reports whether the region has been reclaimed.
func (r *Region) Retired() bool { return r.retired.Load() }

// Stage maps an n-byte buffer for an incoming segment — a pooled mapping
// when one fits, a fresh one otherwise; its contents are undefined. The
// buffer is not yet readable through handles: the decoder fills and
// validates it, then either Commits it into the region's address table or
// Discards it.
func (r *Region) Stage(n uint32) ([]byte, error) {
	if err := fault.Inject(fault.ArenaMapFail); err != nil {
		return nil, err
	}
	b, err := mapSegment(int(n))
	if err != nil {
		return nil, fmt.Errorf("arena: map %d bytes: %w", n, err)
	}
	return b, nil
}

// Commit publishes a staged, validated segment at biased relative address
// startRel. Segments arrive in stream order, so the table stays sorted; the
// new table is published as a fresh copy so concurrent Tail calls never
// observe a partially appended slice.
func (r *Region) Commit(startRel uint64, b []byte) {
	r.mu.Lock()
	var old []segment
	if p := r.segs.Load(); p != nil {
		old = *p
	}
	next := make([]segment, len(old)+1)
	copy(next, old)
	next[len(old)] = segment{startRel: startRel, b: b}
	r.segs.Store(&next)
	r.bytes += uint64(len(b))
	r.mu.Unlock()
	ctrStaged.Add(int64(len(b)))
}

// Discard returns a staged buffer that failed validation to the pool.
func (r *Region) Discard(b []byte) { mappings.Put(b) }

// Tail returns the bytes from biased relative address rel to the end of the
// segment holding it, as a view into the region's mapping — the
// object-granular resolve: the caller reads the header at the front of the
// view, works out the object's size and cuts the view down to it, all for one
// table search. rel at exactly the end of the last segment resolves to an
// empty view (the end of a non-last segment is the start of the next one):
// that is where the payload of a zero-length array that closes a segment
// begins, and reading zero bytes there is legal.
func (r *Region) Tail(rel uint64) ([]byte, error) {
	if r.retired.Load() {
		panic(fmt.Sprintf("arena: use of retired region %d (rel %#x)", r.id, rel))
	}
	var segs []segment
	if p := r.segs.Load(); p != nil {
		segs = *p
	}
	// Binary search the sorted segment table for the segment holding rel.
	lo, hi := 0, len(segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if segs[mid].startRel <= rel {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil, fmt.Errorf("arena: relative address %#x below region %d", rel, r.id)
	}
	s := segs[lo-1]
	off := rel - s.startRel
	if off > uint64(len(s.b)) {
		return nil, fmt.Errorf("arena: relative address %#x beyond segment [%#x,%#x) of region %d",
			rel, s.startRel, s.startRel+uint64(len(s.b)), r.id)
	}
	return s.b[off:len(s.b):len(s.b)], nil
}

// promotion is one promoted object: its managed (pinned, non-moving)
// address and the hook that frees that storage at region retirement.
type promotion struct {
	addr heap.Addr
	free func()
}

// SetPromoted records the promoted copy of the object at biased relative
// address rel, returning the winning address: rel's existing copy if a
// concurrent promotion got there first (the caller's copy is then garbage
// and the caller must free it), addr otherwise.
func (r *Region) SetPromoted(rel uint64, addr heap.Addr, free func()) heap.Addr {
	r.mu.Lock()
	defer r.mu.Unlock()
	var old map[uint64]promotion
	if p := r.promoted.Load(); p != nil {
		old = *p
	}
	if prev, ok := old[rel]; ok {
		return prev.addr
	}
	next := make(map[uint64]promotion, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[rel] = promotion{addr: addr, free: free}
	r.promoted.Store(&next)
	ctrPromoted.Inc()
	return addr
}

// PromotedAddr returns the managed address of the promoted copy of the
// object at rel, or heap.Null if the object was never promoted.
func (r *Region) PromotedAddr(rel uint64) heap.Addr {
	p := r.promoted.Load()
	if p == nil {
		return heap.Null
	}
	if e, ok := (*p)[rel]; ok {
		return e.addr
	}
	return heap.Null
}

// Promotions returns the number of object roots promoted out of the region.
func (r *Region) Promotions() int {
	if p := r.promoted.Load(); p != nil {
		return len(*p)
	}
	return 0
}

// BindEpoch ties the region to a shuffle stage sequence number, making it
// eligible for the stage-retirement backstop. Broadcast regions are never
// bound.
func (r *Region) BindEpoch(epoch uint64) {
	r.mu.Lock()
	r.epoch = epoch
	r.mu.Unlock()
}

// Release reclaims the region: its owner's Free, the stage-epoch backstop
// and the fault injector's premature-free hook all end here, and only the
// first call does anything. Its mappings go back to the pool, inaccessible.
// Subsequent handle reads panic loudly instead of reading freed memory.
func (r *Region) Release() {
	if r.retired.Swap(true) {
		return
	}
	r.mu.Lock()
	var segs []segment
	if p := r.segs.Swap(nil); p != nil {
		segs = *p
	}
	var promoted map[uint64]promotion
	if p := r.promoted.Swap(nil); p != nil {
		promoted = *p
	}
	r.bytes = 0
	r.mu.Unlock()
	for _, s := range segs {
		mappings.Put(s.b)
	}
	// Promoted copies die with the region: by the time a stage retires it,
	// the consuming workload has copied out whatever it keeps.
	for _, p := range promoted {
		if p.free != nil {
			p.free()
		}
	}
	if r.space != nil {
		r.space.drop(r.id)
	}
	ctrReclaimed.Inc()
}

// Space is the per-runtime registry of live regions; tagged arena
// addresses resolve through it. The lookup sits under every arena field
// access, so the region table is published copy-on-write: readers take one
// atomic load, mu serializes the rare writers (region create/retire).
type Space struct {
	mu      sync.Mutex
	regions atomic.Pointer[map[uint32]*Region]
	nextID  uint32 // guarded by mu
}

// NewSpace returns an empty arena space.
func NewSpace() *Space {
	s := &Space{}
	empty := make(map[uint32]*Region)
	s.regions.Store(&empty)
	return s
}

// NewRegion creates and registers a fresh region, owned by the caller until
// it calls Release.
func (s *Space) NewRegion() *Region {
	s.mu.Lock()
	s.nextID++
	if uint64(s.nextID) > heap.ArenaRegionMask {
		s.mu.Unlock()
		panic("arena: region IDs exhausted")
	}
	r := &Region{id: s.nextID, space: s}
	s.publish(func(m map[uint32]*Region) { m[r.id] = r })
	s.mu.Unlock()
	ctrRegions.Inc()
	return r
}

// publish replaces the region table with a copy transformed by mutate.
// Callers hold s.mu.
func (s *Space) publish(mutate func(map[uint32]*Region)) {
	old := *s.regions.Load()
	next := make(map[uint32]*Region, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	mutate(next)
	s.regions.Store(&next)
}

// Region returns the live region with the given ID, or nil if it was
// retired or never existed.
func (s *Space) Region(id uint32) *Region {
	return (*s.regions.Load())[id]
}

// MustRegion is Region for callers holding a tagged address: a missing
// region means the handle outlived its stage, and reading through it must
// fail loudly.
func (s *Space) MustRegion(id uint32) *Region {
	if r := s.Region(id); r != nil {
		return r
	}
	panic(fmt.Sprintf("arena: use of retired region %d", id))
}

// Bytes returns the total staged bytes across live regions.
func (s *Space) Bytes() uint64 {
	var n uint64
	for _, r := range *s.regions.Load() {
		n += r.Bytes()
	}
	return n
}

// Regions returns the number of live regions.
func (s *Space) Regions() int {
	return len(*s.regions.Load())
}

// RetireThrough retires every region bound to a stage epoch <= epoch.
// Unbound regions (broadcast) are untouched. This is the reclamation edge
// the paper ties to explicit buffer management (§3.2): when a shuffle stage
// retires, the whole region goes at once, no per-object work.
func (s *Space) RetireThrough(epoch uint64) {
	var doomed []*Region
	for _, r := range *s.regions.Load() {
		r.mu.Lock()
		bound := r.epoch != 0 && r.epoch <= epoch
		r.mu.Unlock()
		if bound {
			doomed = append(doomed, r)
		}
	}
	for _, r := range doomed {
		r.Release()
	}
}

func (s *Space) drop(id uint32) {
	s.mu.Lock()
	s.publish(func(m map[uint32]*Region) { delete(m, id) })
	s.mu.Unlock()
}
