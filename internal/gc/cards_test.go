package gc_test

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/race"
	"skyway/internal/verify"
	"skyway/internal/vm"
)

// The scavenger finds its old-to-young roots, and cleans its cards, through
// the card table. These tests hold that to the linear walks it replaced —
// kept below as the oracle — and price it.

// eachTenuredObject walks, linearly, the old generation and then every live
// parsed pinned chunk: the oracle's view of tenured space.
func eachTenuredObject(rt *vm.Runtime, fn func(a heap.Addr)) {
	h := rt.Heap
	for a := h.Old.Start; a < h.Old.Top; a = a.Add(rt.ObjectSize(a)) {
		fn(a)
	}
	rt.GC.EachPinned(func(start heap.Addr, size uint32, parsed bool) {
		if parsed {
			for a := start; a < start.Add(size); a = a.Add(rt.ObjectSize(a)) {
				fn(a)
			}
		}
	})
}

// cardsOf calls fn with the index of every card the object at a covers.
func cardsOf(rt *vm.Runtime, a heap.Addr, fn func(card uint64)) {
	for c := uint64(a) / heap.CardSize; c <= (uint64(a)+uint64(rt.ObjectSize(a))-1)/heap.CardSize; c++ {
		fn(c)
	}
}

// linearScan is the oracle root scan: every tenured object, taken when a card
// it covers is dirty, counting the cards it covers.
func linearScan(rt *vm.Runtime, fn func(a heap.Addr)) (cards uint64) {
	eachTenuredObject(rt, func(a heap.Addr) {
		if rt.Heap.RangeDirty(a, rt.ObjectSize(a)) {
			cardsOf(rt, a, func(uint64) { cards++ })
			fn(a)
		}
	})
	return cards
}

// holdsYoung reports whether the object at a points into the young
// generation.
func holdsYoung(rt *vm.Runtime, a heap.Addr) bool {
	young := false
	rt.RefSlots(a, func(off uint32) {
		young = young || rt.Heap.InYoung(heap.Addr(rt.Heap.Load(a, off, klass.Ref)))
	})
	return young
}

// linearClean is the oracle card cleaning: collect every card of every
// tenured object that is on a dirty card and points young, then clean every
// other card any tenured object covers.
func linearClean(rt *vm.Runtime) {
	keep := make(map[uint64]bool)
	eachTenuredObject(rt, func(a heap.Addr) {
		if rt.Heap.RangeDirty(a, rt.ObjectSize(a)) && holdsYoung(rt, a) {
			cardsOf(rt, a, func(c uint64) { keep[c] = true })
		}
	})
	eachTenuredObject(rt, func(a heap.Addr) {
		cardsOf(rt, a, func(c uint64) {
			if !keep[c] {
				rt.Heap.CleanCards(heap.Addr(c*heap.CardSize), 1)
			}
		})
	})
}

// youngSlot is a tenured reference slot built to point young, and the value
// its referent holds.
type youngSlot struct {
	owner heap.Addr
	off   uint32
	v     int64
}

// randomLayout builds, from seed, a tenured heap to scan: mixed-size old
// objects — nodes, small and multi-card long[] and N[] arrays — and pinned
// chunks, parsed, unparsed (their bytes are not objects: a scan that reads
// them panics) and freed, whose reference slots point at random old, pinned
// or young objects. With scramble the cards are then re-dealt at random,
// young pointers or not; without, they are the write barrier's, plus random
// extra dirt. It returns the slots that point young. With verifyOn the heap
// verifier runs around every collection of the runtime, whatever
// SKYWAY_VERIFY says.
func randomLayout(t testing.TB, seed uint64, scramble, verifyOn bool) (*vm.Runtime, []youngSlot) {
	t.Helper()
	was := verify.SetEnabled(verifyOn || verify.Enabled())
	rt, err := vm.NewRuntime(gcPath(), vm.Options{Name: "cards", Heap: heap.Config{
		EdenSize:     96 << 10,
		SurvivorSize: 64 << 10,
		OldSize:      768 << 10,
		BufferSize:   128 << 10,
		Layout:       klass.Layout{Baddr: true},
	}})
	verify.SetEnabled(was)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(seed, 0x5ca1ab1e))
	h := rt.Heap
	nk, longs, refs := rt.MustLoad("N"), rt.MustLoad("long[]"), rt.MustLoad("N[]")
	vF := nk.FieldByName("v")

	var young []heap.Addr
	for i := 0; i < 64; i++ {
		y := rt.MustNew(nk)
		rt.SetLong(y, vF, int64(1000+i))
		young = append(young, y)
	}

	// shape draws an object's klass and array length.
	shape := func() (*klass.Klass, int) {
		switch p := r.IntN(20); {
		case p < 10:
			return nk, 0
		case p < 14:
			return longs, r.IntN(200)
		case p < 17:
			return refs, r.IntN(400)
		case p < 18:
			return longs, 500 + r.IntN(2500)
		default:
			return refs, 1 + r.IntN(8)
		}
	}
	sizeOf := func(k *klass.Klass, n int) uint32 {
		size, _, _ := k.Extent(uint64(n), 1<<30)
		return size
	}
	format := func(a heap.Addr, k *klass.Klass, n int) {
		size := sizeOf(k, n)
		h.ZeroWords(a, size)
		h.SetKlassWord(a, uint64(k.LID))
		if k.IsArray {
			h.SetArrayLen(a, n)
		}
	}

	var targets []heap.Addr // tenured objects a slot may point at
	var owners []heap.Addr  // tenured objects with reference slots
	for limit := h.Old.Free() * 3 / 4; h.Old.Used() < limit; {
		k, n := shape()
		a := h.AllocOld(sizeOf(k, n))
		format(a, k, n)
		targets = append(targets, a)
		if k != longs {
			owners = append(owners, a)
		}
	}
	for i := 0; i < 24; i++ {
		var objs []struct {
			k *klass.Klass
			n int
		}
		var size uint32
		for j := 1 + r.IntN(12); j > 0; j-- {
			k, n := shape()
			if k == longs && n > 200 {
				n = 200
			}
			objs = append(objs, struct {
				k *klass.Klass
				n int
			}{k, n})
			size += sizeOf(k, n)
		}
		base := h.AllocBuffer(size)
		if base == heap.Null {
			break
		}
		pin := rt.GC.Pin(base, size)
		switch p := r.IntN(8); {
		case p == 0: // unparsed: opaque bytes
			for a := base; a < base.Add(size); a = a.Add(8) {
				h.StoreWord(a, 0xDEADBEEFDEADBEEF)
			}
			continue
		case p == 1: // freed: its space goes back to the allocator
			rt.GC.Unpin(pin)
			continue
		}
		pin.Parsed = true
		a := base
		for _, o := range objs {
			format(a, o.k, o.n)
			targets = append(targets, a)
			if o.k != longs {
				owners = append(owners, a)
			}
			a = a.Add(sizeOf(o.k, o.n))
		}
	}

	var slots []youngSlot
	for _, a := range owners {
		rt.RefSlots(a, func(off uint32) {
			var to heap.Addr
			switch p := r.IntN(10); {
			case p < 1:
				y := young[r.IntN(len(young))]
				to = y
				slots = append(slots, youngSlot{a, off, rt.GetLong(y, vF)})
			case p < 4:
				to = targets[r.IntN(len(targets))]
			default:
				return
			}
			h.Store(a, off, klass.Ref, uint64(to))
			h.DirtyCard(a)
		})
	}

	tenured := []heap.Region{{Start: h.Old.Start, End: h.Old.Top}, {Start: h.Buffers.Start, End: h.Buffers.Top}}
	for _, reg := range tenured {
		for a := reg.Start; a < reg.End; a = a.Add(heap.CardSize) {
			switch p := r.IntN(8); {
			case scramble && p < 6:
				h.CleanCards(a, 1)
			case p == 7:
				h.DirtyCard(a)
			}
		}
	}
	return rt, slots
}

func gcPath() *klass.Path {
	cp := klass.NewPath()
	cp.MustDefine(&klass.ClassDef{Name: "N", Fields: []klass.FieldDef{
		{Name: "v", Kind: klass.Int64},
		{Name: "next", Kind: klass.Ref, Class: "N"},
	}})
	return cp
}

// TestCardScanMatchesLinearWalk: over seeded random tenured layouts, the
// card-driven root scan visits exactly the objects the linear walk takes, in
// the same order, and counts the same cards; the card-driven cleaning leaves
// exactly the linear cleaning's card table; and a real scavenge over the
// layout keeps every young referent, with the heap verifier silent.
func TestCardScanMatchesLinearWalk(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		rt, _ := randomLayout(t, seed, true, false)
		oracle, _ := randomLayout(t, seed, true, false)

		var got, want []heap.Addr
		before := rt.GC.Stats()
		rt.GC.ScanTenured(func(a heap.Addr) { got = append(got, a) })
		cards := rt.GC.Stats().CardsScanned - before.CardsScanned
		wantCards := linearScan(oracle, func(a heap.Addr) { want = append(want, a) })
		if !slices.Equal(got, want) || cards != wantCards {
			t.Fatalf("seed %d: card scan visited %d objects over %d cards, linear walk %d over %d",
				seed, len(got), cards, len(want), wantCards)
		}
		if len(want) == 0 {
			t.Fatalf("seed %d: nothing on a dirty card", seed)
		}

		rt.GC.CleanCards()
		linearClean(oracle)
		for a := heap.Addr(0); uint64(a) < rt.Heap.TotalBytes(); a = a.Add(heap.CardSize) {
			if rt.Heap.RangeDirty(a, 1) != oracle.Heap.RangeDirty(a, 1) {
				t.Fatalf("seed %d: card at %#x dirty %v after the card-driven cleaning, %v after the linear one",
					seed, uint64(a), rt.Heap.RangeDirty(a, 1), oracle.Heap.RangeDirty(a, 1))
			}
		}

		live, slots := randomLayout(t, seed, false, true)
		vF := live.MustLoad("N").FieldByName("v")
		for pass := 0; pass < 2; pass++ {
			if !live.GC.Scavenge() {
				t.Fatalf("seed %d: scavenge refused", seed)
			}
			for _, s := range slots {
				if ref := heap.Addr(live.Heap.Load(s.owner, s.off, klass.Ref)); live.GetLong(ref, vF) != s.v {
					t.Fatalf("seed %d, scavenge %d: slot %#x+%d lost its young referent", seed, pass, uint64(s.owner), s.off)
				}
			}
		}
	}
}

// scavengeRig returns a runtime whose old generation of oldSize bytes is
// full of clean-carded nodes but for 512 KiB of promotion headroom, with a
// fixed live young set: a 4000-node list that never tenures, so every
// scavenge copies the same objects.
func scavengeRig(tb testing.TB, oldSize uint64) *vm.Runtime {
	tb.Helper()
	rt, err := vm.NewRuntime(gcPath(), vm.Options{Name: "rig", Heap: heap.Config{
		EdenSize:     1 << 20,
		SurvivorSize: 256 << 10,
		OldSize:      oldSize,
		BufferSize:   64 << 10,
		Layout:       klass.Layout{Baddr: true},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	h := rt.Heap
	k := rt.MustLoad("N")
	for h.Old.Free() > 512<<10 {
		a := h.AllocOld(k.Size)
		h.ZeroWords(a, k.Size)
		h.SetKlassWord(a, uint64(k.LID))
	}
	rt.GC.TenureAge = 1 << 30
	head := rt.Pin(rt.MustNew(k))
	tb.Cleanup(head.Release)
	next := k.FieldByName("next")
	for i := 1; i < 4000; i++ {
		n := rt.MustNew(k)
		rt.SetRef(n, next, head.Addr())
		head.Set(n)
	}
	return rt
}

// BenchmarkScavenge prices one scavenge of the same live young set over a
// 1 MiB and a 64 MiB old generation, every card clean. The card scan reads
// 2 KiB of card table for one and 128 KiB for the other; the objects behind
// them are never touched.
func BenchmarkScavenge(b *testing.B) {
	for _, size := range []struct {
		name  string
		bytes uint64
	}{{"old=1MiB", 1 << 20}, {"old=64MiB", 64 << 20}} {
		b.Run(size.name, func(b *testing.B) {
			rt := scavengeRig(b, size.bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !rt.GC.Scavenge() {
					b.Fatal("scavenge refused")
				}
			}
		})
	}
}

// TestScavengeCostIndependentOfOldSize: BenchmarkScavenge's two cases as a
// gate — the fastest of several scavenges over 64 MiB of clean old generation
// costs within 1.5x of the same over 1 MiB. One scavenge takes a few hundred
// microseconds, so a single ratio is at the mercy of the host; the gate takes
// the median of interleaved trials on the same two rigs.
func TestScavengeCostIndependentOfOldSize(t *testing.T) {
	if testing.Short() || race.Enabled || verify.Enabled() {
		t.Skip("timing comparison skipped under -short, the race detector and SKYWAY_VERIFY")
	}
	fastest := func(rt *vm.Runtime) time.Duration {
		best := time.Duration(1 << 62)
		for i := 0; i < 15; i++ {
			start := time.Now()
			if !rt.GC.Scavenge() {
				t.Fatal("scavenge refused")
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	smallRig, largeRig := scavengeRig(t, 1<<20), scavengeRig(t, 64<<20)
	const trials = 5
	var ratios []float64
	for len(ratios) < trials {
		small := fastest(smallRig)
		large := fastest(largeRig)
		ratios = append(ratios, float64(large)/float64(small))
	}
	slices.Sort(ratios)
	if median := ratios[len(ratios)/2]; median > 1.5 {
		t.Errorf("scavenge over 64 MiB of old generation took a median %.2fx the time over 1 MiB over %d trials, more than 1.5x (ratios %.2f)",
			median, trials, ratios)
	}
}
