package verify_test

import (
	"fmt"
	"strings"
	"testing"

	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/registry"
	"skyway/internal/verify"
	"skyway/internal/vm"
)

// The corruption-injection tests seed one precise breach per invariant class
// and assert the verifier reports exactly that violation — no more, no less.

func newRT(t testing.TB) *vm.Runtime {
	t.Helper()
	cp := klass.NewPath()
	cp.MustDefine(&klass.ClassDef{Name: "Node", Fields: []klass.FieldDef{
		{Name: "v", Kind: klass.Int64},
		{Name: "next", Kind: klass.Ref, Class: "Node"},
	}})
	rt, err := vm.NewRuntime(cp, vm.Options{Name: "verifier", Registry: registry.InProc{R: registry.NewRegistry()}})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func mustClean(t *testing.T, rt *vm.Runtime) {
	t.Helper()
	if vs := verify.Verify(rt.Heap, rt); len(vs) != 0 {
		t.Fatalf("heap not clean before corruption: %v", vs)
	}
}

// exactlyOne asserts vs holds one violation of the given kind at the given
// object address and returns it.
func exactlyOne(t *testing.T, vs []verify.Violation, kind verify.Kind, addr heap.Addr) verify.Violation {
	t.Helper()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want exactly 1 %s: %v", len(vs), kind, vs)
	}
	if vs[0].Kind != kind {
		t.Fatalf("got violation kind %s, want %s: %v", vs[0].Kind, kind, vs[0])
	}
	if vs[0].Addr != addr {
		t.Fatalf("violation at %#x, want %#x: %v", uint64(vs[0].Addr), uint64(addr), vs[0])
	}
	return vs[0]
}

func TestVerifyFlagsFlippedKlassWord(t *testing.T) {
	rt := newRT(t)
	a := rt.MustNew(rt.MustLoad("Node"))
	p := rt.Pin(a)
	defer p.Release()
	mustClean(t, rt)

	rt.Heap.SetKlassWord(a, rt.Heap.KlassWord(a)|0x8000) // no runtime loads 32768 classes

	exactlyOne(t, verify.Verify(rt.Heap, rt), verify.BadKlass, a)
}

func TestVerifyFlagsDanglingReference(t *testing.T) {
	rt := newRT(t)
	k := rt.MustLoad("Node")
	f := k.FieldByName("next")
	a, b := rt.MustNew(k), rt.MustNew(k)
	pa, pb := rt.Pin(a), rt.Pin(b)
	defer pa.Release()
	defer pb.Release()
	rt.SetRef(a, f, b)
	mustClean(t, rt)

	// Point a.next into the middle of b: a mapped address, but not the
	// start of any live object.
	rt.Heap.Store(a, f.Offset, klass.Ref, uint64(b.Add(8)))

	v := exactlyOne(t, verify.Verify(rt.Heap, rt), verify.DanglingRef, a)
	if v.Off != f.Offset {
		t.Errorf("violation slot offset %d, want %d", v.Off, f.Offset)
	}
}

func TestVerifyFlagsClearedDirtyCard(t *testing.T) {
	rt := newRT(t)
	k := rt.MustLoad("Node")
	f := k.FieldByName("next")
	p := rt.Pin(rt.MustNew(k))
	defer p.Release()
	rt.GC.FullGC() // tenure the pinned object
	old := p.Addr()
	if !rt.Heap.InOld(old) {
		t.Fatalf("object at %#x did not tenure", uint64(old))
	}
	young := rt.MustNew(k)
	py := rt.Pin(young)
	defer py.Release()
	rt.SetRef(old, f, young) // write barrier dirties the covering card
	mustClean(t, rt)

	rt.Heap.CleanCards(rt.Heap.Old.Start, rt.Heap.Old.Used())

	v := exactlyOne(t, verify.Verify(rt.Heap, rt), verify.MissingCard, old)
	if v.Off != f.Offset {
		t.Errorf("violation slot offset %d, want %d", v.Off, f.Offset)
	}
}

func TestVerifyFlagsStaleObjectStart(t *testing.T) {
	rt := newRT(t)
	p := rt.Pin(rt.MustNew(rt.MustLoad("Node")))
	defer p.Release()
	rt.GC.FullGC() // tenure the node: the generation's first object
	mustClean(t, rt)

	// A 512-byte array bump-allocated behind AllocOld's back covers the first
	// byte of exactly one card, whose table entry still names the node.
	const size = 512
	a := rt.Heap.Old.Alloc(size)
	rt.Heap.ZeroWords(a, size)
	rt.Heap.SetKlassWord(a, uint64(rt.MustLoad("long[]").LID))
	rt.Heap.SetArrayLen(a, int(size-rt.Heap.Layout().ArrayHeaderSize())/8)

	exactlyOne(t, verify.Verify(rt.Heap, rt), verify.BadObjectStart, a)
}

func TestVerifyFlagsMalformedBaddrWord(t *testing.T) {
	rt := newRT(t)
	a := rt.MustNew(rt.MustLoad("Node"))
	p := rt.Pin(a)
	defer p.Release()
	mustClean(t, rt)

	// Nonzero baddr with a zero phase is neither a cleared word nor a
	// well-formed in-flight claim.
	rt.Heap.AtomicSetBaddr(a, heap.BaddrRelMask&0xBEEF)

	exactlyOne(t, verify.Verify(rt.Heap, rt), verify.BadBaddr, a)
}

func TestCheckChunkFlagsUnrelativizedPointer(t *testing.T) {
	rt := newRT(t)
	k := rt.MustLoad("Node")
	f := k.FieldByName("next")
	h := rt.Heap

	// Hand-build a two-image wire-form chunk: klass words hold the global
	// type ID, the only reference is a relative offset into the stream.
	base := h.AllocBuffer(2 * k.Size)
	if base == heap.Null {
		t.Fatal("buffer allocation failed")
	}
	h.ZeroWords(base, 2*k.Size)
	img1, img2 := base, base.Add(k.Size)
	h.SetKlassWord(img1, uint64(uint32(k.TID)))
	h.SetKlassWord(img2, uint64(uint32(k.TID)))
	limit := heap.RelBias + uint64(2*k.Size) // sender's flushed watermark
	h.Store(img1, f.Offset, klass.Ref, heap.RelBias+uint64(k.Size))
	chunk := verify.Chunk{Base: base, Size: 2 * k.Size, Done: 0, Limit: limit}
	if vs := verify.CheckChunk(h, rt, chunk); len(vs) != 0 {
		t.Fatalf("well-formed chunk reported violations: %v", vs)
	}

	// Corrupt: img2.next carries an absolute heap address the sender never
	// relativized — far past any plausible flushed watermark.
	h.Store(img2, f.Offset, klass.Ref, uint64(img1))

	v := exactlyOne(t, verify.CheckChunk(h, rt, chunk), verify.BadBufferRel, img2)
	if v.Off != f.Offset {
		t.Errorf("violation slot offset %d, want %d", v.Off, f.Offset)
	}
}

// TestCheckChunkBoundsForgedArrayLength pins the audit of a suffix no walker
// has validated: a reference-array image whose length word says 2^29 has a
// 2^32-byte payload, which a 32-bit size computation wraps to the bare array
// header — a size that fits the chunk exactly — after which the slot walk
// ran 2^29 loads through and off the end of the slab. The full-width extent
// fits nowhere, so the walk must end at that image with one BadWalk.
func TestCheckChunkBoundsForgedArrayLength(t *testing.T) {
	rt := newRT(t)
	ak := rt.MustLoad("Node[]")
	h := rt.Heap

	base := h.AllocBuffer(ak.Size)
	if base == heap.Null {
		t.Fatal("buffer allocation failed")
	}
	h.ZeroWords(base, ak.Size)
	h.SetKlassWord(base, uint64(uint32(ak.TID)))
	h.SetArrayLen(base, 1<<29)

	chunk := verify.Chunk{Base: base, Size: ak.Size, Limit: heap.RelBias + uint64(ak.Size)}
	exactlyOne(t, verify.CheckChunk(h, rt, chunk), verify.BadWalk, base)
}

func TestGCVerifyHookPanicsOnCorruption(t *testing.T) {
	cp := klass.NewPath()
	cp.MustDefine(&klass.ClassDef{Name: "Node", Fields: []klass.FieldDef{
		{Name: "v", Kind: klass.Int64},
		{Name: "next", Kind: klass.Ref, Class: "Node"},
	}})
	// The switch is read once, by NewRuntime, to arm the collector's hooks.
	was := verify.SetEnabled(true)
	rt, err := vm.NewRuntime(cp, vm.Options{Name: "hooked"})
	verify.SetEnabled(was)
	if err != nil {
		t.Fatal(err)
	}
	p := rt.Pin(rt.MustNew(rt.MustLoad("Node")))
	defer p.Release()
	rt.GC.FullGC() // clean heap: before/after hooks run silently

	rt.Heap.SetKlassWord(p.Addr(), 0xDEAD)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("FullGC on a corrupted heap did not panic with the verifier armed")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, string(verify.BadKlass)) {
			t.Errorf("panic %q does not name the %s violation", msg, verify.BadKlass)
		}
	}()
	rt.GC.FullGC()
}

func TestSetEnabledSwapsProcessFlag(t *testing.T) {
	prev := verify.SetEnabled(true)
	defer verify.SetEnabled(prev)
	if !verify.Enabled() {
		t.Error("Enabled() false after SetEnabled(true)")
	}
	if !verify.SetEnabled(false) {
		t.Error("SetEnabled did not report the previous value")
	}
	if verify.Enabled() {
		t.Error("Enabled() true after SetEnabled(false)")
	}
}
