package heap

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"skyway/internal/klass"
)

func testHeap() *Heap {
	return New(Config{
		EdenSize:     1 << 20,
		SurvivorSize: 64 << 10,
		OldSize:      1 << 20,
		BufferSize:   1 << 20,
		Layout:       klass.Layout{Baddr: true},
	})
}

func TestRegionsDisjointAndAligned(t *testing.T) {
	h := testHeap()
	regions := []*Region{&h.Eden, &h.From, &h.To, &h.Old, &h.Buffers}
	prevEnd := Addr(klass.WordSize)
	for i, r := range regions {
		if r.Start != prevEnd {
			t.Errorf("region %d starts at %#x, want %#x", i, uint64(r.Start), uint64(prevEnd))
		}
		if uint64(r.Start)%klass.WordSize != 0 {
			t.Errorf("region %d start unaligned", i)
		}
		prevEnd = r.End
	}
}

func TestNullIsNotAllocatable(t *testing.T) {
	h := testHeap()
	a := h.AllocYoung(16)
	if a == Null {
		t.Fatal("young alloc failed")
	}
	if a == 0 {
		t.Fatal("allocated the null address")
	}
}

func TestWordRoundTrip(t *testing.T) {
	h := testHeap()
	a := h.AllocYoung(32)
	h.StoreWord(a, 0xDEADBEEFCAFEBABE)
	if got := h.LoadWord(a); got != 0xDEADBEEFCAFEBABE {
		t.Errorf("LoadWord = %#x", got)
	}
}

func TestSubWordFields(t *testing.T) {
	h := testHeap()
	a := h.AllocYoung(64)
	// Pack 8 bytes into one word; they must not clobber each other.
	for i := uint32(0); i < 8; i++ {
		h.Store(a, 24+i, klass.Int8, uint64(0x10+i))
	}
	for i := uint32(0); i < 8; i++ {
		if got := h.Load(a, 24+i, klass.Int8); got != uint64(0x10+i) {
			t.Errorf("byte %d = %#x", i, got)
		}
	}
	h.Store(a, 32, klass.Int16, 0xBEEF)
	h.Store(a, 34, klass.Int16, 0xCAFE)
	h.Store(a, 36, klass.Int32, 0x12345678)
	if h.Load(a, 32, klass.Int16) != 0xBEEF || h.Load(a, 34, klass.Int16) != 0xCAFE {
		t.Error("int16 fields corrupted")
	}
	if h.Load(a, 36, klass.Int32) != 0x12345678 {
		t.Error("int32 field corrupted")
	}
}

// Property: storing at any (offset, kind) then loading returns the value
// truncated to the kind's width, and neighbouring bytes are untouched.
func TestStoreLoadQuick(t *testing.T) {
	h := testHeap()
	a := h.AllocYoung(128)
	kinds := []klass.Kind{klass.Int8, klass.Int16, klass.Int32, klass.Int64}
	f := func(slot uint8, kindSel uint8, v uint64) bool {
		kind := kinds[int(kindSel)%len(kinds)]
		sz := kind.Size()
		off := (uint32(slot) % (96 / sz)) * sz // aligned slot inside payload
		h.ZeroWords(a, 128)
		h.Store(a, off, kind, v)
		want := v
		switch sz {
		case 1:
			want &= 0xFF
		case 2:
			want &= 0xFFFF
		case 4:
			want &= 0xFFFFFFFF
		}
		if h.Load(a, off, kind) != want {
			return false
		}
		// All other bytes must be zero.
		var sum uint64
		for w := uint32(0); w < 128; w += 8 {
			sum |= h.LoadWord(a + Addr(w))
		}
		return sum == want<<((uint64(off)%8)*8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCopyOutCopyInRoundTrip(t *testing.T) {
	h := testHeap()
	a := h.AllocYoung(64)
	for i := uint32(0); i < 64; i++ {
		h.Store(a, i, klass.Int8, uint64(i*7+1))
	}
	buf := make([]byte, 64)
	h.CopyOut(a, 64, buf)
	b := h.AllocYoung(64)
	h.CopyIn(b, 64, buf)
	buf2 := make([]byte, 64)
	h.CopyOut(b, 64, buf2)
	if !bytes.Equal(buf, buf2) {
		t.Error("CopyOut/CopyIn not byte-identical")
	}
}

func TestMarkWordBits(t *testing.T) {
	h := testHeap()
	a := h.AllocYoung(32)
	h.SetMark(a, 0)
	if _, ok := h.HashOf(a); ok {
		t.Error("fresh object claims a hash")
	}
	h.SetHash(a, 0x7FFFABCD)
	if hv, ok := h.HashOf(a); !ok || hv != 0x7FFFABCD {
		t.Errorf("HashOf = %#x,%v", hv, ok)
	}
	h.SetAge(a, 3)
	h.SetMarked(a, true)
	if h.Age(a) != 3 || !h.Marked(a) {
		t.Error("age/mark bits wrong")
	}
	// Hash must survive age/mark mutation and transient-bit reset.
	m := ResetTransientMarkBits(h.Mark(a))
	h.SetMark(a, m)
	if hv, ok := h.HashOf(a); !ok || hv != 0x7FFFABCD {
		t.Error("hash lost by ResetTransientMarkBits")
	}
	if h.Marked(a) || h.Age(a) != 0 {
		t.Error("transient bits not reset")
	}
}

func TestForwarding(t *testing.T) {
	h := testHeap()
	a := h.AllocYoung(32)
	b := h.AllocYoung(32)
	h.SetMark(a, 0)
	if _, fwd := h.Forwarded(a); fwd {
		t.Error("fresh object claims forwarding")
	}
	h.SetForwarded(a, b)
	to, fwd := h.Forwarded(a)
	if !fwd || to != b {
		t.Errorf("Forwarded = %#x,%v", uint64(to), fwd)
	}
}

func TestAllocExhaustion(t *testing.T) {
	h := testHeap()
	n := 0
	for h.AllocYoung(1024) != Null {
		n++
	}
	if n != (1<<20)/1024 {
		t.Errorf("allocated %d KiB chunks from a 1 MiB eden", n)
	}
}

func TestCardTable(t *testing.T) {
	h := testHeap()
	a := h.AllocOld(4096)
	if h.CardDirty(a) {
		t.Error("card dirty before any store")
	}
	h.DirtyCard(a + 600) // second card of the object
	if h.CardDirty(a) {
		t.Error("wrong card dirtied")
	}
	if !h.RangeDirty(a, 4096) {
		t.Error("RangeDirty missed the dirty card")
	}
	h.CleanCards(a, 4096)
	if h.RangeDirty(a, 4096) {
		t.Error("CleanCards left dirt")
	}
	h.DirtyRange(a, 4096)
	for off := uint32(0); off < 4096; off += CardSize {
		if !h.CardDirty(a + Addr(off)) {
			t.Errorf("card at +%d not dirty after DirtyRange", off)
		}
	}
}

// TestDirtyCardScan: NextDirtyCard steps from dirty card to dirty card,
// returning each card's first byte; a kept card reads dirty but is not
// found again; SettleCards cleans the unkept dirt of every range before it
// restores a kept card two ranges share.
func TestDirtyCardScan(t *testing.T) {
	h := testHeap()
	lo := h.AllocOld(8 * CardSize)
	hi := lo.Add(8 * CardSize)
	if _, ok := h.NextDirtyCard(lo, hi); ok {
		t.Fatal("dirty card found on a fresh heap")
	}
	h.DirtyCard(lo + 3*CardSize + 5)
	h.DirtyCard(lo + 6*CardSize)
	cardOf := func(a Addr) uint64 { return uint64(a)/CardSize - uint64(lo)/CardSize }
	var found []uint64
	for a := lo; ; {
		card, ok := h.NextDirtyCard(a, hi)
		if !ok {
			break
		}
		if uint64(card)%CardSize != 0 {
			t.Fatalf("NextDirtyCard(%#x) = %#x, not a card's first byte", uint64(a), uint64(card))
		}
		found = append(found, cardOf(card))
		a = card + CardSize
	}
	if !slices.Equal(found, []uint64{3, 6}) {
		t.Errorf("dirty cards found at %v, want [3 6]", found)
	}

	// Two ranges sharing card 3: the first keeps it, the second's dirt on
	// card 6 is not kept.
	first := Region{Start: lo, End: lo + 3*CardSize + 64}
	second := Region{Start: first.End, End: hi}
	h.KeepCards(lo+3*CardSize, 8)
	if !h.CardDirty(lo+3*CardSize) || !h.RangeDirty(lo, 8*CardSize) {
		t.Error("a kept card reads clean")
	}
	if card, _ := h.NextDirtyCard(lo, hi); cardOf(card) != 6 {
		t.Errorf("NextDirtyCard found %#x, want the unkept card 6", uint64(card))
	}
	h.SettleCards([]Region{first, second})
	if !h.CardDirty(lo+3*CardSize) || h.CardDirty(lo+6*CardSize) {
		t.Errorf("after SettleCards: kept card dirty %v, unkept card dirty %v, want true, false",
			h.CardDirty(lo+3*CardSize), h.CardDirty(lo+6*CardSize))
	}
	if card, ok := h.NextDirtyCard(lo, hi); !ok || cardOf(card) != 3 {
		t.Error("settled card not found dirty again")
	}
}

// TestOldObjectStarts: every card names the object covering its first
// old-generation byte, across small objects, a multi-card one, and a
// compaction-style reset that bumps the generation again.
func TestOldObjectStarts(t *testing.T) {
	h := testHeap()
	check := func(stage string) {
		t.Helper()
		for a := h.Old.Start; a < h.Old.Top; {
			size := Addr(24)
			if (a-h.Old.Start)%3 == 0 {
				size = 3 * CardSize
			}
			for c := uint64(a) / CardSize; c*CardSize < uint64(a+size); c++ {
				if first := max(Addr(c*CardSize), h.Old.Start); first >= a {
					if got := h.OldObjectStart(first); got != a {
						t.Fatalf("%s: card at %#x names %#x, want %#x", stage, c*CardSize, uint64(got), uint64(a))
					}
				}
			}
			a += size
		}
	}
	alloc := func(n int) {
		for i := 0; i < n; i++ {
			size := uint32(24)
			if (h.Old.Top-h.Old.Start)%3 == 0 {
				size = 3 * CardSize
			}
			h.AllocOld(size)
		}
	}
	alloc(400)
	check("after allocation")
	h.Old.Reset()
	alloc(150)
	check("after re-bumping")
}

func TestAtomicCas(t *testing.T) {
	h := testHeap()
	a := h.AllocYoung(32)
	h.StoreWord(a+16, 7)
	if h.CasWord(a+16, 8, 9) {
		t.Error("CAS succeeded with wrong expected value")
	}
	if !h.CasWord(a+16, 7, 9) {
		t.Error("CAS failed with right expected value")
	}
	if h.LoadWord(a+16) != 9 {
		t.Error("CAS did not store")
	}
}

func TestBufferFreeListReuse(t *testing.T) {
	h := testHeap()
	a := h.AllocBuffer(4096)
	b := h.AllocBuffer(4096)
	if a == Null || b == Null {
		t.Fatal("buffer allocs failed")
	}
	topBefore := h.Buffers.Top
	// Freeing the bump tail rewinds the top.
	h.FreeBufferRange(b, 4096)
	if h.Buffers.Top != topBefore-4096 {
		t.Error("tail free did not rewind the bump pointer")
	}
	b2 := h.AllocBuffer(4096)
	if b2 != b {
		t.Errorf("tail realloc got %#x, want %#x", uint64(b2), uint64(b))
	}
	// Freeing an interior chunk lists it; a smaller alloc carves it.
	h.FreeBufferRange(a, 4096)
	c := h.AllocBuffer(1024)
	if c != a {
		t.Errorf("first-fit alloc got %#x, want %#x", uint64(c), uint64(a))
	}
	d := h.AllocBuffer(3072)
	if d != a+1024 {
		t.Errorf("split remainder alloc got %#x, want %#x", uint64(d), uint64(a+1024))
	}
}

// checkBufInvariants asserts the buffer allocator's internal consistency:
// every free span lies inside buffer space, is non-empty, spans are mutually
// disjoint, in address order and fully merged (no two adjacent, none
// touching the bump tail), and BufferUsed never exceeds the bump extent.
func checkBufInvariants(t *testing.T, h *Heap) {
	t.Helper()
	for i, s := range h.bufFree {
		if s.Start >= s.End {
			t.Fatalf("free span %d empty or inverted: [%#x, %#x)", i, uint64(s.Start), uint64(s.End))
		}
		if !h.Buffers.Contains(s.Start) || s.End > h.Buffers.Top {
			t.Fatalf("free span %d [%#x, %#x) outside allocated buffer space (top %#x)",
				i, uint64(s.Start), uint64(s.End), uint64(h.Buffers.Top))
		}
		for j, o := range h.bufFree[:i] {
			if s.Start < o.End && o.Start < s.End {
				t.Fatalf("free spans %d and %d overlap", i, j)
			}
		}
		if i > 0 && h.bufFree[i-1].End >= s.Start {
			t.Fatalf("free span %d [%#x, %#x) not above and apart from span %d ending %#x",
				i, uint64(s.Start), uint64(s.End), i-1, uint64(h.bufFree[i-1].End))
		}
		if s.End == h.Buffers.Top {
			t.Fatalf("free span %d [%#x, %#x) touches the bump tail", i, uint64(s.Start), uint64(s.End))
		}
	}
	if h.BufferUsed() > h.Buffers.Used() {
		t.Fatalf("BufferUsed %d exceeds bump extent %d", h.BufferUsed(), h.Buffers.Used())
	}
}

// TestBufferInterleavedFreeAlloc drives the free-list through interleaved
// frees and allocations of different-sized chunks — the pattern a Skyway
// receiver produces when streams of different record sizes are freed out of
// order (§3.2 explicit free).
func TestBufferInterleavedFreeAlloc(t *testing.T) {
	h := testHeap()
	sizes := []uint32{512, 4096, 1024, 8192, 2048, 512, 4096, 1024}
	addrs := make([]Addr, len(sizes))
	for i, n := range sizes {
		addrs[i] = h.AllocBuffer(n)
		if addrs[i] == Null {
			t.Fatalf("alloc %d (%d bytes) failed", i, n)
		}
		checkBufInvariants(t, h)
	}
	// Free every other chunk (interior holes of mixed sizes).
	for i := 0; i < len(sizes); i += 2 {
		h.FreeBufferRange(addrs[i], sizes[i])
		checkBufInvariants(t, h)
	}
	used := h.BufferUsed()
	var freed uint64
	for i := 0; i < len(sizes); i += 2 {
		freed += uint64(sizes[i])
	}
	var total uint64
	for _, n := range sizes {
		total += uint64(n)
	}
	if used != total-freed {
		t.Fatalf("BufferUsed = %d, want %d", used, total-freed)
	}
	// Small allocations must be served out of the holes (first-fit), not
	// fresh bump space.
	topBefore := h.Buffers.Top
	for _, n := range []uint32{256, 256, 1024, 512} {
		if a := h.AllocBuffer(n); a == Null {
			t.Fatalf("hole alloc of %d failed", n)
		} else if a >= topBefore {
			t.Fatalf("alloc of %d bytes at %#x came from bump space, not a hole", n, uint64(a))
		}
		checkBufInvariants(t, h)
	}
	if h.Buffers.Top != topBefore {
		t.Fatal("hole-served allocations advanced the bump pointer")
	}
	// An allocation larger than any hole falls through to bump space.
	big := h.AllocBuffer(16384)
	if big == Null || big < topBefore {
		t.Fatalf("oversized alloc got %#x, want fresh bump space above %#x", uint64(big), uint64(topBefore))
	}
	checkBufInvariants(t, h)
}

// TestBufferReuseBeforeExhaustion frees and reallocates same-sized chunks in
// a loop sized to overflow buffer space many times over — the allocator must
// recycle rather than exhaust (the receive path of a long run frees each
// stream's chunks after consumption).
func TestBufferReuseBeforeExhaustion(t *testing.T) {
	h := testHeap() // 1 MiB of buffer space
	const chunk = 64 << 10
	rounds := int(h.Buffers.Free()/chunk) * 8
	for i := 0; i < rounds; i++ {
		a := h.AllocBuffer(chunk)
		if a == Null {
			t.Fatalf("round %d: buffer space exhausted despite frees", i)
		}
		// Hold two chunks at once so frees are not pure tail rewinds.
		b := h.AllocBuffer(chunk)
		if b == Null {
			t.Fatalf("round %d: second alloc failed", i)
		}
		h.FreeBufferRange(a, chunk)
		h.FreeBufferRange(b, chunk)
		checkBufInvariants(t, h)
	}
	if hw := h.BufferHighWater(); hw != 2*chunk {
		t.Errorf("BufferHighWater = %d, want %d (two live chunks at peak)", hw, 2*chunk)
	}
}

// TestFreeBufferRangeCoalesces: freed neighbours merge whichever is freed
// first, and the bump tail takes back a listed span it comes to touch — so a
// stream's worth of chunks, freed one by one, is one reusable extent again,
// and two adjacent free 64 KiB chunks serve a 128 KiB segment instead of the
// reader reporting exhausted input-buffer space.
func TestFreeBufferRangeCoalesces(t *testing.T) {
	const chunk = 64 << 10
	for _, order := range [][]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 3}, {3, 2}, {0, 1, 2, 3}, {2, 0, 3, 1}} {
		h := New(Config{BufferSize: 4 * chunk, Layout: klass.Layout{Baddr: true}})
		var at [4]Addr
		for i := range at {
			if at[i] = h.AllocBuffer(chunk); at[i] == Null {
				t.Fatalf("alloc %d failed", i)
			}
		}
		for _, i := range order {
			h.FreeBufferRange(at[i], chunk)
			checkBufInvariants(t, h)
		}
		if want := uint64(4-len(order)) * chunk; h.BufferUsed() != want {
			t.Errorf("free order %v: BufferUsed = %d, want %d", order, h.BufferUsed(), want)
		}
		if got := h.AllocBuffer(uint32(len(order)) * chunk); got != at[slices.Min(order)] {
			t.Errorf("free order %v: %d KiB alloc got %#x, want the merged extent at %#x",
				order, len(order)*chunk>>10, uint64(got), uint64(at[slices.Min(order)]))
		}
		checkBufInvariants(t, h)
	}
}

// TestBufferHighWater pins the high-water semantics: it tracks peak live
// bytes, not the bump extent, and never decreases on frees.
func TestBufferHighWater(t *testing.T) {
	h := testHeap()
	if h.BufferHighWater() != 0 {
		t.Fatal("fresh heap has nonzero buffer high-water mark")
	}
	a := h.AllocBuffer(8192)
	b := h.AllocBuffer(4096)
	if got := h.BufferHighWater(); got != 8192+4096 {
		t.Fatalf("high water = %d, want %d", got, 8192+4096)
	}
	h.FreeBufferRange(b, 4096)
	h.FreeBufferRange(a, 8192)
	if got := h.BufferHighWater(); got != 8192+4096 {
		t.Fatalf("high water dropped to %d after frees", got)
	}
	if used := h.BufferUsed(); used != 0 {
		t.Fatalf("BufferUsed = %d after freeing everything", used)
	}
	// Reusing a hole keeps the mark until live bytes exceed the old peak.
	h.AllocBuffer(4096)
	if got := h.BufferHighWater(); got != 8192+4096 {
		t.Fatalf("high water moved to %d on hole reuse below the peak", got)
	}
}

func TestFreeBufferOutsideSpacePanics(t *testing.T) {
	h := testHeap()
	defer func() {
		if recover() == nil {
			t.Error("freeing non-buffer range did not panic")
		}
	}()
	h.FreeBufferRange(h.Old.Start, 64)
}
