package gc_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"skyway/internal/gc"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/vm"
)

// The collector tests run through the vm runtime (which implements gc.Meta)
// rather than a hand-rolled Meta, so what is exercised is what ships.

func newRT(t testing.TB) *vm.Runtime {
	t.Helper()
	cp := klass.NewPath()
	cp.MustDefine(
		&klass.ClassDef{Name: "N", Fields: []klass.FieldDef{
			{Name: "v", Kind: klass.Int64},
			{Name: "next", Kind: klass.Ref, Class: "N"},
		}},
	)
	rt, err := vm.NewRuntime(cp, vm.Options{Name: "gct", Heap: heap.Config{
		EdenSize:     96 << 10,
		SurvivorSize: 16 << 10,
		OldSize:      768 << 10,
		BufferSize:   128 << 10,
		Layout:       klass.Layout{Baddr: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestHandleReleaseMakesGarbage(t *testing.T) {
	rt := newRT(t)
	k := rt.MustLoad("N")
	h := rt.Pin(rt.MustNew(k))
	rt.GC.FullGC()
	liveBefore := rt.Heap.Old.Used()
	h.Release()
	rt.GC.FullGC()
	if rt.Heap.Old.Used() >= liveBefore {
		t.Errorf("old gen did not shrink after releasing the only root: %d -> %d",
			liveBefore, rt.Heap.Old.Used())
	}
}

func TestScavengePromotesAfterTenureAge(t *testing.T) {
	rt := newRT(t)
	k := rt.MustLoad("N")
	h := rt.Pin(rt.MustNew(k))
	defer h.Release()
	for i := 0; i < rt.GC.TenureAge+1; i++ {
		if !rt.GC.Scavenge() {
			t.Fatal("scavenge refused")
		}
	}
	if !rt.Heap.InOld(h.Addr()) {
		t.Errorf("object not promoted after %d scavenges", rt.GC.TenureAge+1)
	}
}

func TestScavengeBailsWhenOldFull(t *testing.T) {
	rt := newRT(t)
	k := rt.MustLoad("long[]")
	// Fill old gen almost completely.
	for {
		a := rt.Heap.AllocOld(4096)
		if a == heap.Null {
			break
		}
		rt.Heap.ZeroWords(a, 4096)
		rt.Heap.SetKlassWord(a, uint64(k.LID))
		rt.Heap.SetArrayLen(a, (4096-int(rt.Heap.Layout().ArrayHeaderSize()))/8)
	}
	// Put something in eden so the worst-case promotion exceeds old.Free.
	rt.Heap.AllocYoung(8192)
	if rt.GC.Scavenge() {
		t.Error("scavenge proceeded without promotion headroom")
	}
}

// A scavenge that bails for lack of promotion headroom and falls back to a
// full mark-compact must report ONE pause, attributed to promotion pressure
// — not a scavenge pause overlapping a full-GC pause.
func TestFallbackPauseAccountingDisjoint(t *testing.T) {
	rt := newRT(t)
	k := rt.MustLoad("long[]")
	// Fill old gen almost completely so the headroom check fails.
	for {
		a := rt.Heap.AllocOld(4096)
		if a == heap.Null {
			break
		}
		rt.Heap.ZeroWords(a, 4096)
		rt.Heap.SetKlassWord(a, uint64(k.LID))
		rt.Heap.SetArrayLen(a, (4096-int(rt.Heap.Layout().ArrayHeaderSize()))/8)
	}
	// One array filling eden, with a walkable header: under SKYWAY_VERIFY
	// the collector's hooks walk every region before the collection.
	young := rt.Heap.AllocYoung(8192)
	rt.Heap.ZeroWords(young, 8192)
	rt.Heap.SetKlassWord(young, uint64(k.LID))
	rt.Heap.SetArrayLen(young, (8192-int(rt.Heap.Layout().ArrayHeaderSize()))/8)

	before := rt.GC.Stats()
	// The vm allocation slow path: scavenge refuses, full GC runs.
	if rt.GC.Scavenge() {
		t.Fatal("scavenge proceeded without promotion headroom")
	}
	rt.GC.FullGC()
	s := rt.GC.Stats()

	if got := s.Pauses - before.Pauses; got != 1 {
		t.Errorf("fallback pair recorded %d pauses, want 1", got)
	}
	if s.Scavenges != before.Scavenges {
		t.Errorf("bailed scavenge was counted: %d -> %d", before.Scavenges, s.Scavenges)
	}
	if s.ScavengePause != before.ScavengePause {
		t.Errorf("bailed scavenge accrued pause time: %v -> %v", before.ScavengePause, s.ScavengePause)
	}
	if s.FullGCPause <= before.FullGCPause {
		t.Errorf("full GC pause not recorded: %v -> %v", before.FullGCPause, s.FullGCPause)
	}
	if got := s.PromotionFullGCs - before.PromotionFullGCs; got != 1 {
		t.Errorf("PromotionFullGCs delta = %d, want 1 (promotion-triggered attribution)", got)
	}
	// Disjoint partition: total pause time is exactly the two buckets.
	if s.TotalPause() != s.ScavengePause+s.FullGCPause {
		t.Errorf("TotalPause %v != ScavengePause %v + FullGCPause %v",
			s.TotalPause(), s.ScavengePause, s.FullGCPause)
	}
	// A later explicit full GC is NOT promotion-attributed: the fallback
	// mark must not stick.
	rt.GC.FullGC()
	s2 := rt.GC.Stats()
	if s2.PromotionFullGCs != s.PromotionFullGCs {
		t.Errorf("explicit FullGC after fallback still promotion-attributed: %d -> %d",
			s.PromotionFullGCs, s2.PromotionFullGCs)
	}
	if got := s2.Pauses - s.Pauses; got != 1 {
		t.Errorf("explicit FullGC recorded %d pauses, want 1", got)
	}
}

// A successful scavenge after a bail clears the promotion attribution.
func TestFallbackMarkClearedBySuccessfulScavenge(t *testing.T) {
	rt := newRT(t)
	k := rt.MustLoad("N")
	h := rt.Pin(rt.MustNew(k))
	defer h.Release()
	if !rt.GC.Scavenge() {
		t.Fatal("scavenge refused on a fresh heap")
	}
	s := rt.GC.Stats()
	if s.Scavenges != 1 || s.Pauses != 1 || s.ScavengePause <= 0 {
		t.Errorf("scavenge pause not recorded: %+v", s)
	}
	rt.GC.FullGC()
	if got := rt.GC.Stats().PromotionFullGCs; got != 0 {
		t.Errorf("FullGC after successful scavenge promotion-attributed: %d", got)
	}
}

func TestStatsMerge(t *testing.T) {
	a := gc.Stats{Scavenges: 1, FullGCs: 2, PromotedB: 10, Pauses: 3, ScavengePause: 5, FullGCPause: 7, MaxPause: 4, CardsScanned: 9}
	b := gc.Stats{Scavenges: 2, FullGCs: 1, PromotedB: 5, Pauses: 2, ScavengePause: 1, FullGCPause: 2, MaxPause: 6, CardsScanned: 1}
	a.Merge(b)
	if a.Scavenges != 3 || a.FullGCs != 3 || a.PromotedB != 15 || a.Pauses != 5 ||
		a.ScavengePause != 6 || a.FullGCPause != 9 || a.MaxPause != 6 || a.CardsScanned != 10 {
		t.Errorf("Merge = %+v", a)
	}
	if a.TotalPause() != 15 {
		t.Errorf("TotalPause = %v", a.TotalPause())
	}
}

func TestFullGCCompactsOldGen(t *testing.T) {
	rt := newRT(t)
	k := rt.MustLoad("N")
	// Tenure interleaved live/dead objects: pin every other one.
	var pins []interface {
		Addr() heap.Addr
		Release()
	}
	for i := 0; i < 200; i++ {
		h := rt.Pin(rt.MustNew(k))
		if i%2 == 0 {
			pins = append(pins, h)
		} else {
			defer h.Release() // keep alive through the tenuring GC only
		}
	}
	rt.GC.FullGC() // everything tenures
	used := rt.Heap.Old.Used()

	// Drop the odd pins (already deferred) by running a full GC after
	// releasing them explicitly.
	for _, p := range pins {
		_ = p
	}
	// Release the deferred (odd) handles early:
	// (they were deferred; emulate by collecting with only even pins).
	// Instead: release every second pinned handle now.
	for i, p := range pins {
		if i%2 == 1 {
			p.Release()
		}
	}
	rt.GC.FullGC()
	if rt.Heap.Old.Used() >= used {
		t.Errorf("full GC did not compact: %d -> %d", used, rt.Heap.Old.Used())
	}
	// Survivors must still be intact.
	vF := rt.MustLoad("N").FieldByName("v")
	for i, p := range pins {
		if i%2 == 1 {
			continue
		}
		_ = rt.GetLong(p.Addr(), vF) // must not panic
	}
}

func TestPinnedChunksSurviveAndAnchor(t *testing.T) {
	rt := newRT(t)
	k := rt.MustLoad("N")

	// Build a fake parsed input chunk holding one object.
	size := k.Size
	base := rt.Heap.AllocBuffer(klass.Pad(size))
	rt.Heap.ZeroWords(base, klass.Pad(size))
	rt.Heap.SetKlassWord(base, uint64(k.LID))
	pin := rt.GC.Pin(base, klass.Pad(size))
	pin.Parsed = true

	// Point the buffer object at a young object; dirty card via SetRef.
	young := rt.MustNew(k)
	rt.SetLong(young, k.FieldByName("v"), 1234)
	rt.SetRef(base, k.FieldByName("next"), young)

	rt.GC.FullGC()
	got := rt.GetRef(base, k.FieldByName("next"))
	if got == heap.Null || rt.GetLong(got, k.FieldByName("v")) != 1234 {
		t.Fatal("object referenced only from a pinned chunk was collected")
	}
	if rt.Heap.InYoung(got) {
		// FullGC tenures everything it keeps.
		t.Error("survivor left in young space after full GC")
	}

	// After unpinning, the chunk no longer roots anything.
	rt.GC.Unpin(pin)
	rt.GC.FullGC()
	if rt.Heap.Old.Used() != 0 {
		t.Errorf("unpinned chunk still anchors %d bytes", rt.Heap.Old.Used())
	}
}

func TestStatsCount(t *testing.T) {
	rt := newRT(t)
	k := rt.MustLoad("N")
	h := rt.Pin(rt.MustNew(k))
	defer h.Release()
	rt.GC.Scavenge()
	rt.GC.FullGC()
	s := rt.GC.Stats()
	if s.Scavenges != 1 || s.FullGCs != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.HandleCount != 1 {
		t.Errorf("HandleCount = %d", s.HandleCount)
	}
}

// Property: any random sequence of list builds, handle releases, root-table
// appends / truncations and collections preserves exactly the pinned lists'
// and the table slots' contents, and HandleCount is the number of both.
func TestGCSoakQuick(t *testing.T) {
	rt := newRT(t)
	k := rt.MustLoad("N")
	vF, nextF := k.FieldByName("v"), k.FieldByName("next")

	type listT struct {
		pin interface {
			Addr() heap.Addr
			Release()
		}
		vals []int64
	}
	var live []*listT

	buildList := func(seed int64, n int) *listT {
		l := &listT{}
		var headPin *gc.Handle
		var tail *gc.Handle
		for i := 0; i < n; i++ {
			node := rt.MustNew(k)
			v := seed*1000 + int64(i)
			rt.SetLong(node, vF, v)
			l.vals = append(l.vals, v)
			if headPin == nil {
				headPin = rt.Pin(node)
				tail = rt.Pin(node)
			} else {
				rt.SetRef(tail.Addr(), nextF, node)
				tail.Set(node)
			}
		}
		tail.Release()
		l.pin = headPin
		return l
	}
	checkList := func(l *listT) bool {
		cur := l.pin.Addr()
		for _, want := range l.vals {
			if cur == heap.Null || rt.GetLong(cur, vF) != want {
				return false
			}
			cur = rt.GetRef(cur, nextF)
		}
		return cur == heap.Null
	}

	// One root table beside the handles: slot i holds a lone node whose value
	// is tabVals[i].
	tab := rt.GC.NewRoots()
	var tabVals []int64

	f := func(ops []uint8) bool {
		for i, op := range ops {
			switch op % 6 {
			case 0:
				live = append(live, buildList(int64(i), 1+int(op)%20))
			case 1:
				if len(live) > 0 {
					victim := live[int(op)%len(live)]
					victim.pin.Release()
					live = append(live[:int(op)%len(live)], live[int(op)%len(live)+1:]...)
				}
			case 2:
				if !rt.GC.Scavenge() {
					rt.GC.FullGC()
				}
			case 3:
				rt.GC.FullGC()
			case 4:
				for j := 0; j <= int(op)%8; j++ {
					v := -int64(i)*1000 - int64(j)
					node := rt.MustNew(k)
					rt.SetLong(node, vF, v)
					tab.Append(node)
					tabVals = append(tabVals, v)
				}
			case 5:
				// Roll back to a mark, or (a third of the time) to empty.
				n := tab.Len() / 2
				if op%3 == 0 {
					n = 0
				}
				tab.Truncate(n)
				tabVals = tabVals[:n]
			}
			for _, l := range live {
				if !checkList(l) {
					return false
				}
			}
			for j, want := range tabVals {
				if rt.GetLong(tab.At(j), vF) != want {
					return false
				}
			}
			if got := rt.GC.Stats().HandleCount; got != len(live)+tab.Len() {
				t.Logf("HandleCount = %d with %d handles and %d table slots", got, len(live), tab.Len())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	for _, l := range live {
		l.pin.Release()
	}
	tab.Release()
	if got := rt.GC.Stats().HandleCount; got != 0 {
		t.Errorf("HandleCount = %d after releasing everything", got)
	}
}

// A root table is a GC root kind of its own: a scavenge forwards its slots in
// place, a compacting full GC redirects them, and a slot dropped by Truncate
// or Release stops keeping its object alive. HandleCount counts live slots.
func TestRootTableSlotsAreRoots(t *testing.T) {
	rt := newRT(t)
	k := rt.MustLoad("N")
	vF := k.FieldByName("v")
	count := func() int { return rt.GC.Stats().HandleCount }

	// Garbage first, so the compaction below has somewhere to slide to.
	junk := rt.Pin(rt.MustNew(k))
	rt.GC.FullGC()

	tab := rt.GC.NewRoots()
	if tab.Len() != 0 || count() != 1 {
		t.Fatalf("fresh table: Len %d, HandleCount %d", tab.Len(), count())
	}
	for i := 0; i < 3; i++ {
		node := rt.MustNew(k)
		rt.SetLong(node, vF, int64(10+i))
		if slot := tab.Append(node); slot != i {
			t.Fatalf("Append returned slot %d, want %d", slot, i)
		}
	}
	if count() != 4 {
		t.Errorf("HandleCount = %d with 1 handle and 3 slots", count())
	}
	check := func(stage string, n int) {
		t.Helper()
		if tab.Len() != n || len(tab.Slots()) != n {
			t.Fatalf("%s: Len %d, want %d", stage, tab.Len(), n)
		}
		for i := 0; i < n; i++ {
			if got := rt.GetLong(tab.At(i), vF); got != int64(10+i) {
				t.Errorf("%s: slot %d reads %d", stage, i, got)
			}
			if tab.Slots()[i] != tab.At(i) {
				t.Errorf("%s: Slots()[%d] disagrees with At", stage, i)
			}
		}
	}

	eden := tab.At(0)
	if !rt.Heap.Eden.Contains(eden) {
		t.Fatal("fresh node not in eden")
	}
	if !rt.GC.Scavenge() {
		t.Fatal("scavenge refused")
	}
	if tab.At(0) == eden || rt.Heap.Eden.Contains(tab.At(0)) {
		t.Errorf("scavenge left slot 0 at its eden address %#x", uint64(tab.At(0)))
	}
	check("after scavenge", 3)

	// Tenure the nodes, free the older neighbour below them, compact.
	rt.GC.FullGC()
	before := tab.At(0)
	if !rt.Heap.InOld(before) {
		t.Fatal("full GC did not tenure the table's nodes")
	}
	junk.Release()
	rt.GC.FullGC()
	if tab.At(0) >= before {
		t.Errorf("compaction did not slide slot 0 down: %#x -> %#x", uint64(before), uint64(tab.At(0)))
	}
	check("after compacting full GC", 3)

	// Truncate: the dropped slot's node is garbage, the kept ones are not.
	used := rt.Heap.Old.Used()
	tab.Truncate(2)
	if count() != 2 {
		t.Errorf("HandleCount = %d after Truncate(2)", count())
	}
	rt.GC.FullGC()
	if rt.Heap.Old.Used() >= used {
		t.Errorf("old gen did not shrink after truncating a slot: %d -> %d", used, rt.Heap.Old.Used())
	}
	check("after truncate", 2)

	// Release: nothing is rooted, the table is reusable.
	tab.Release()
	rt.GC.FullGC()
	if count() != 0 || rt.Heap.Old.Used() != 0 {
		t.Errorf("after Release: HandleCount %d, old gen %d bytes", count(), rt.Heap.Old.Used())
	}
	node := rt.MustNew(k)
	rt.SetLong(node, vF, 10)
	tab.Append(node)
	rt.GC.Scavenge()
	check("reused after release", 1)
	tab.Release()
}

// Two tables on one collector unregister independently, in either order.
func TestRootTablesReleaseIndependently(t *testing.T) {
	rt := newRT(t)
	k := rt.MustLoad("N")
	vF := k.FieldByName("v")
	a, b, c := rt.GC.NewRoots(), rt.GC.NewRoots(), rt.GC.NewRoots()
	for i, tab := range []*gc.Roots{a, b, c} {
		node := rt.MustNew(k)
		rt.SetLong(node, vF, int64(i))
		tab.Append(node)
	}
	a.Release() // the first registered goes first: the last takes its place
	rt.GC.FullGC()
	if rt.GetLong(b.At(0), vF) != 1 || rt.GetLong(c.At(0), vF) != 2 {
		t.Error("a surviving table lost its slot when another was released")
	}
	c.Release()
	b.Release()
	if got := rt.GC.Stats().HandleCount; got != 0 {
		t.Errorf("HandleCount = %d", got)
	}
}

func TestPinOutsideBufferSpacePanics(t *testing.T) {
	rt := newRT(t)
	defer func() {
		if recover() == nil {
			t.Error("Pin outside buffer space did not panic")
		}
	}()
	rt.GC.Pin(rt.Heap.Old.Start, 64)
}

func ExampleCollector_stats() {
	cp := klass.NewPath()
	cp.MustDefine(&klass.ClassDef{Name: "X", Fields: []klass.FieldDef{{Name: "v", Kind: klass.Int64}}})
	rt, _ := vm.NewRuntime(cp, vm.Options{Name: "ex"})
	h := rt.Pin(rt.MustNew(rt.MustLoad("X")))
	rt.GC.FullGC()
	fmt.Println(rt.GC.Stats().FullGCs)
	h.Release()
	// Output: 1
}

func TestFullGCWithoutEvacuationRoom(t *testing.T) {
	rt := newRT(t)
	k := rt.MustLoad("N")
	vF := k.FieldByName("v")

	// Fill the old generation with live (pinned) data.
	var pins []*gc.Handle
	arrK := rt.MustLoad("long[]")
	for {
		a := rt.Heap.AllocOld(4096)
		if a == heap.Null {
			break
		}
		rt.Heap.ZeroWords(a, 4096)
		rt.Heap.SetKlassWord(a, uint64(arrK.LID))
		rt.Heap.SetArrayLen(a, (4096-int(rt.Heap.Layout().ArrayHeaderSize()))/8)
		pins = append(pins, rt.GC.NewHandle(a))
	}
	// Live young objects that cannot be evacuated.
	young := rt.Pin(rt.MustNew(k))
	rt.SetLong(young.Addr(), vF, 4711)

	rt.GC.FullGC() // must not panic, must not lose the young object
	if rt.GetLong(young.Addr(), vF) != 4711 {
		t.Error("young object lost by non-evacuating full GC")
	}
	if !rt.Heap.InYoung(young.Addr()) {
		t.Error("young object moved despite no old-gen room")
	}
	for _, p := range pins {
		p.Release()
	}
	young.Release()
	rt.GC.FullGC()
	if rt.Heap.Old.Used() != 0 {
		t.Error("old gen not reclaimed after releasing roots")
	}
}

func TestRecleanKeepsSharedCardWithYoungPointer(t *testing.T) {
	// Two tenured neighbors share a 512-byte card; only the first holds a
	// young pointer. Card cleaning must be card-granular: cleaning the
	// youngless neighbor's span used to wipe the shared card, and the
	// second scavenge silently dropped the old-to-young edge.
	rt := newRT(t)
	k := rt.MustLoad("N")
	vf := k.FieldByName("v")
	nf := k.FieldByName("next")
	pa := rt.Pin(rt.MustNew(k))
	pb := rt.Pin(rt.MustNew(k))
	defer pa.Release()
	defer pb.Release()
	rt.GC.FullGC() // tenure both, adjacent in the old generation
	if !rt.Heap.InOld(pa.Addr()) || !rt.Heap.InOld(pb.Addr()) {
		t.Fatal("objects did not tenure")
	}

	young := rt.MustNew(k)
	rt.SetInt(young, vf, 777)
	rt.SetRef(pa.Addr(), nf, young) // dirties the shared card

	// First scavenge moves the young object and recleans cards; the
	// second must still find it through the old-to-young edge. With
	// TenureAge=2 a traced edge promotes the object on the second pass;
	// a dropped edge leaves the pointer dangling into survivor space
	// (where the stale bytes linger, so a value check alone cannot tell).
	for i := 0; i < 2; i++ {
		if !rt.GC.Scavenge() {
			t.Fatalf("scavenge %d refused", i)
		}
	}
	got := rt.GetRef(pa.Addr(), nf)
	if got == heap.Null || !rt.Heap.InOld(got) {
		t.Fatalf("old-to-young edge dropped by card recleaning: ref %#x not promoted", uint64(got))
	}
	if rt.GetInt(got, vf) != 777 {
		t.Fatalf("young object corrupted after reclean: v=%d", rt.GetInt(got, vf))
	}
}
