package vm

import (
	"testing"

	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/verify"
)

// fillArray formats the size bytes at a as one long[], so a region filled by
// hand stays walkable.
func fillArray(rt *Runtime, a heap.Addr, size uint32) {
	hdr := rt.Heap.Layout().ArrayHeaderSize()
	rt.Heap.ZeroWords(a, size)
	rt.Heap.SetKlassWord(a, uint64(rt.MustLoad("long[]").LID))
	rt.Heap.SetArrayLen(a, int((size-hdr)/8))
}

// mustVerify fails the test with every violation the heap verifier finds.
func mustVerify(t *testing.T, rt *Runtime, stage string) {
	t.Helper()
	for _, v := range verify.Verify(rt.Heap, rt) {
		t.Errorf("%s: %s", stage, v)
	}
}

// A scavenge that promotes an owner (to-space has no room for it) and then
// copies the owner's referent into the to-space it has left must dirty the
// owner's card, as the mutator's barrier would have: otherwise the next
// scavenge does not see the edge and frees the referent under it.
func TestScavengeMarksPromotedOwnerCard(t *testing.T) {
	rt := smallRuntime(t)
	k := rt.MustLoad("Node")
	nextF := k.FieldByName("next")

	owner := rt.Pin(rt.MustNew(k))
	defer owner.Release()
	ref := rt.MustNewArray(rt.MustLoad("long[]"), 0)
	hash := rt.HashCode(ref)
	rt.SetRef(owner.Addr(), nextF, ref)

	// To-space keeps 32 bytes: too few for the 40-byte owner, exactly the
	// referent's.
	if size := rt.ObjectSize(ref); size != 32 || k.Size <= size {
		t.Fatalf("sizes changed: referent %d, owner %d bytes", size, k.Size)
	}
	n := rt.Heap.To.Free() - 32
	fillArray(rt, rt.Heap.To.Alloc(n), uint32(n))

	if !rt.GC.Scavenge() {
		t.Fatal("scavenge refused")
	}
	got := rt.GetRef(owner.Addr(), nextF)
	if !rt.Heap.InOld(owner.Addr()) || !rt.Heap.From.Contains(got) {
		t.Fatalf("set-up did not hold: owner at %#x (old %v), referent at %#x (survivor %v)",
			uint64(owner.Addr()), rt.Heap.InOld(owner.Addr()), uint64(got), rt.Heap.From.Contains(got))
	}
	if !rt.Heap.CardDirty(owner.Addr()) {
		t.Error("promoted owner pointing into to-space is on a clean card")
	}
	mustVerify(t, rt, "after the promoting scavenge")

	if !rt.GC.Scavenge() {
		t.Fatal("second scavenge refused")
	}
	got = rt.GetRef(owner.Addr(), nextF)
	if rt.KlassOf(got).Name != "long[]" || rt.ArrayLen(got) != 0 || rt.HashCode(got) != hash {
		t.Errorf("referent lost by the second scavenge: %#x", uint64(got))
	}
	mustVerify(t, rt, "after the second scavenge")
}

// A full GC that cannot evacuate the young generation still slides the old
// one: an old object that points young moves onto other cards, and the
// cards must follow it.
func TestFullGCKeepsCardsWhenYoungStays(t *testing.T) {
	rt := smallRuntime(t)
	k := rt.MustLoad("Node")
	nextF := k.FieldByName("next")
	arrK := rt.MustLoad("long[]")

	// Old generation: [live filler][dead 1 KiB][Node -> young], ~15 KiB free.
	fillSize := uint32(rt.Heap.Old.Free()) - 15<<10 - 1<<10 - k.Size
	filler := rt.Heap.AllocOld(fillSize)
	fillArray(rt, filler, fillSize)
	fillerPin := rt.Pin(filler)
	defer fillerPin.Release()
	fillArray(rt, rt.Heap.AllocOld(1<<10), 1<<10)
	node := rt.Heap.AllocOld(k.Size)
	rt.Heap.ZeroWords(node, k.Size)
	rt.Heap.SetKlassWord(node, uint64(k.LID))
	nodePin := rt.Pin(node)
	defer nodePin.Release()

	// ~60 KiB of young survivors: more than the old generation can take.
	young := rt.GC.NewRoots()
	defer young.Release()
	for i := 0; i < 15; i++ {
		young.Append(rt.MustNewArray(arrK, 500))
	}
	rt.SetRef(nodePin.Addr(), nextF, young.At(0))

	rt.GC.FullGC()
	if !rt.Heap.InYoung(young.At(0)) || nodePin.Addr() == node {
		t.Fatalf("set-up did not hold: young evacuated %v, node moved %v",
			!rt.Heap.InYoung(young.At(0)), nodePin.Addr() != node)
	}
	for a := rt.Heap.Old.Start; a < rt.Heap.Old.Top; a = a.Add(rt.ObjectSize(a)) {
		rt.RefSlots(a, func(off uint32) {
			if ref := heap.Addr(rt.Heap.Load(a, off, klass.Ref)); rt.Heap.InYoung(ref) && !rt.Heap.RangeDirty(a, rt.ObjectSize(a)) {
				t.Errorf("old object %#x points young (%#x) on clean cards", uint64(a), uint64(ref))
			}
		})
	}
	mustVerify(t, rt, "after the non-evacuating full GC")
}
