package arena

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"skyway/internal/heap"
)

// stage maps, fills, and commits one segment at startRel.
func stage(t *testing.T, r *Region, startRel uint64, data []byte) {
	t.Helper()
	b, err := r.Stage(uint32(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	copy(b, data)
	r.Commit(startRel, b)
}

func TestRegionResolveBounds(t *testing.T) {
	s := NewSpace()
	r := s.NewRegion()
	defer r.Release()
	stage(t, r, 8, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	stage(t, r, 16, []byte{9, 10, 11, 12, 13, 14, 15, 16})

	// Exact hits, including across the segment boundary in the table.
	if b, err := r.Tail(8); err != nil || len(b) != 8 || b[0] != 1 || b[7] != 8 {
		t.Fatalf("Tail(8) = %v, %v", b, err)
	}
	if b, err := r.Tail(20); err != nil || len(b) != 4 || b[0] != 13 {
		t.Fatalf("Tail(20) = %v, %v", b, err)
	}

	// Below the first segment: structured error naming the bound.
	if _, err := r.Tail(4); err == nil || !strings.Contains(err.Error(), "below region") {
		t.Fatalf("Tail below region = %v, want below-region error", err)
	}
	// The view stops at its segment's end even though the next mapping
	// exists — a read never crosses from one segment into another.
	if b, err := r.Tail(12); err != nil || len(b) != 4 {
		t.Fatalf("Tail(12) = %v, %v; want the 4 bytes left in the segment", b, err)
	}
	// Past the last segment.
	if _, err := r.Tail(25); err == nil || !strings.Contains(err.Error(), "beyond") {
		t.Fatalf("Tail past the last segment = %v, want a beyond-segment error", err)
	}
}

// TestTailAtSegmentEnd pins the contract a zero-length array depends on: its
// (empty) payload starts exactly where its segment ends. At the end of an
// inner segment that address is the next segment's first byte; at the end of
// the last one nothing follows and the view is empty, not an error.
func TestTailAtSegmentEnd(t *testing.T) {
	s := NewSpace()
	r := s.NewRegion()
	defer r.Release()
	stage(t, r, 8, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	stage(t, r, 16, []byte{9, 10, 11, 12, 13, 14, 15, 16})
	if b, err := r.Tail(16); err != nil || len(b) != 8 || b[0] != 9 {
		t.Errorf("Tail at an inner segment's end = %v, %v; want the next segment", b, err)
	}
	if b, err := r.Tail(24); err != nil || len(b) != 0 {
		t.Errorf("Tail at the region's end = %v, %v; want an empty view", b, err)
	}
}

func TestRegionRefcountAndRetire(t *testing.T) {
	s := NewSpace()
	r := s.NewRegion()
	stage(t, r, 8, make([]byte, 64))
	if _, err := r.Tail(8); err != nil {
		t.Fatalf("resolve before release: %v", err)
	}
	r.Release()
	if !r.Retired() {
		t.Fatal("region survived its release")
	}
	if s.Regions() != 0 {
		t.Fatalf("space still tracks %d regions after retirement", s.Regions())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Tail on a retired region did not panic")
		}
	}()
	r.Tail(8)
}

func TestRetireThroughSkipsUnboundRegions(t *testing.T) {
	s := NewSpace()
	bound := s.NewRegion()
	late := s.NewRegion()
	broadcast := s.NewRegion()
	bound.BindEpoch(3)
	late.BindEpoch(7)
	// broadcast stays at epoch 0: exempt from the stage backstop.

	s.RetireThrough(5)
	if !bound.Retired() {
		t.Error("region bound to epoch 3 survived RetireThrough(5)")
	}
	if late.Retired() {
		t.Error("region bound to epoch 7 retired by RetireThrough(5)")
	}
	if broadcast.Retired() {
		t.Error("unbound broadcast region retired by the stage backstop")
	}
	late.Release()
	broadcast.Release()
}

func TestSetPromotedFirstWins(t *testing.T) {
	s := NewSpace()
	r := s.NewRegion()
	winner, loser := heap.Addr(0x100), heap.Addr(0x200)
	var freed []heap.Addr
	record := func(a heap.Addr) func() { return func() { freed = append(freed, a) } }

	if got := r.SetPromoted(8, winner, record(winner)); got != winner {
		t.Fatalf("first SetPromoted returned %#x, want %#x", got, winner)
	}
	// A racing promotion of the same root loses: the existing address wins
	// and the caller is told to free its copy itself.
	if got := r.SetPromoted(8, loser, record(loser)); got != winner {
		t.Fatalf("racing SetPromoted returned %#x, want established %#x", got, winner)
	}
	if got := r.PromotedAddr(8); got != winner {
		t.Fatalf("PromotedAddr = %#x, want %#x", got, winner)
	}
	if r.Promotions() != 1 {
		t.Fatalf("Promotions() = %d, want 1", r.Promotions())
	}
	if got := r.PromotedAddr(16); got != heap.Null {
		t.Fatalf("PromotedAddr of never-promoted rel = %#x, want Null", got)
	}

	// Retirement runs only the winning entry's free hook.
	r.Release()
	if len(freed) != 1 || freed[0] != winner {
		t.Fatalf("retire freed %v, want exactly the winner %#x", freed, winner)
	}
}

func TestMustRegionPanicsAfterRetire(t *testing.T) {
	s := NewSpace()
	r := s.NewRegion()
	id := r.ID()
	if s.MustRegion(id) != r {
		t.Fatal("MustRegion did not return the live region")
	}
	r.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegion on a retired ID did not panic")
		}
	}()
	s.MustRegion(id)
}

func TestSpaceBytesAcrossRegions(t *testing.T) {
	s := NewSpace()
	a, b := s.NewRegion(), s.NewRegion()
	stage(t, a, 8, make([]byte, 100))
	stage(t, b, 8, make([]byte, 28))
	if got := s.Bytes(); got != 128 {
		t.Fatalf("Space.Bytes() = %d, want 128", got)
	}
	a.Release()
	if got := s.Bytes(); got != 28 {
		t.Fatalf("Space.Bytes() after retiring one region = %d, want 28", got)
	}
	b.Release()
}

// TestReleasedMappingFaultsWhilePooled: a released segment's mapping waits
// in the process-wide pool inaccessible, so reading through a view kept past
// Release faults (a panic under debug.SetPanicOnFault) instead of returning
// bytes the next staged segment will own.
func TestReleasedMappingFaultsWhilePooled(t *testing.T) {
	r := NewSpace().NewRegion()
	stage(t, r, 8, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	view, err := r.Tail(8)
	if err != nil {
		t.Fatal(err)
	}
	r.Release()
	// The pool hands the mapping back for a segment of the same size.
	again, err := mapSegment(len(view))
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &view[0] {
		t.Fatal("the released segment's mapping did not wait in the pool")
	}
	mappings.Put(again)
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		t.Skip("pooled mappings are protected only where package syscall has mprotect")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if recover() == nil {
			t.Fatal("reading a pooled mapping through a stale view did not fault")
		}
	}()
	staleByte = view[0]
}

// staleByte is where the stale read lands, so it is not optimized away.
var staleByte byte
