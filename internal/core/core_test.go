package core

import (
	"bytes"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/registry"
	"skyway/internal/vm"
)

// crcTable is the Castagnoli table of hash/crc32, for tests that build
// segments by hand: an oracle independent of the crc32c kernel the writer
// and reader use.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// testCluster builds two runtimes (sender, receiver) sharing a classpath
// and an in-process registry — the minimal two-node cluster.
func testCluster(t testing.TB) (*vm.Runtime, *vm.Runtime, *Skyway) {
	t.Helper()
	cp := klass.NewPath()
	cp.MustDefine(
		&klass.ClassDef{Name: "Date", Fields: []klass.FieldDef{
			{Name: "year", Kind: klass.Ref, Class: "Year4D"},
			{Name: "month", Kind: klass.Int32},
			{Name: "day", Kind: klass.Int32},
		}},
		&klass.ClassDef{Name: "Year4D", Fields: []klass.FieldDef{
			{Name: "value", Kind: klass.Int32},
		}},
		&klass.ClassDef{Name: "Cell", Fields: []klass.FieldDef{
			{Name: "v", Kind: klass.Float64},
			{Name: "next", Kind: klass.Ref, Class: "Cell"},
		}},
		&klass.ClassDef{Name: "Pair", Fields: []klass.FieldDef{
			{Name: "a", Kind: klass.Ref, Class: "Cell"},
			{Name: "b", Kind: klass.Ref, Class: "Cell"},
		}},
	)
	reg := registry.NewRegistry()
	sender, err := vm.NewRuntime(cp, vm.Options{Name: "sender", Registry: registry.InProc{R: reg}})
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := vm.NewRuntime(cp, vm.Options{Name: "receiver", Registry: registry.InProc{R: reg}})
	if err != nil {
		t.Fatal(err)
	}
	return sender, receiver, New(sender)
}

func newDate(t testing.TB, rt *vm.Runtime, y, m, d int) heap.Addr {
	t.Helper()
	dk := rt.MustLoad("Date")
	yk := rt.MustLoad("Year4D")
	yo := rt.MustNew(yk)
	rt.SetInt(yo, yk.FieldByName("value"), int64(y))
	yp := rt.Pin(yo)
	defer yp.Release()
	do := rt.MustNew(dk)
	rt.SetRef(do, dk.FieldByName("year"), yp.Addr())
	rt.SetInt(do, dk.FieldByName("month"), int64(m))
	rt.SetInt(do, dk.FieldByName("day"), int64(d))
	return do
}

func TestRoundTripSimpleObject(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	var buf bytes.Buffer

	d := newDate(t, snd, 2018, 3, 24)
	w := sky.NewWriter(&buf)
	if err := w.WriteObject(d); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(rcv, &buf)
	got, err := r.ReadObject()
	if err != nil {
		t.Fatal(err)
	}
	dk := rcv.MustLoad("Date")
	yk := rcv.MustLoad("Year4D")
	if rcv.KlassOf(got) != dk {
		t.Fatalf("received klass %s", rcv.KlassOf(got).Name)
	}
	if rcv.GetInt(got, dk.FieldByName("month")) != 3 || rcv.GetInt(got, dk.FieldByName("day")) != 24 {
		t.Error("primitive fields corrupted")
	}
	yo := rcv.GetRef(got, dk.FieldByName("year"))
	if yo == heap.Null || rcv.GetInt(yo, yk.FieldByName("value")) != 2018 {
		t.Error("referenced object corrupted")
	}
	if _, err := r.ReadObject(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestRoundTripCycle(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	ck := snd.MustLoad("Cell")
	vF, nF := ck.FieldByName("v"), ck.FieldByName("next")

	// Two-cell cycle.
	a := snd.MustNew(ck)
	ap := snd.Pin(a)
	b := snd.MustNew(ck)
	a = ap.Addr()
	ap.Release()
	snd.SetDouble(a, vF, 1.5)
	snd.SetDouble(b, vF, -2.25)
	snd.SetRef(a, nF, b)
	snd.SetRef(b, nF, a)

	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.WriteObject(a); err != nil {
		t.Fatal(err)
	}
	w.Close()

	got, err := NewReader(rcv, &buf).ReadObject()
	if err != nil {
		t.Fatal(err)
	}
	rck := rcv.MustLoad("Cell")
	rvF, rnF := rck.FieldByName("v"), rck.FieldByName("next")
	gb := rcv.GetRef(got, rnF)
	if rcv.GetDouble(got, rvF) != 1.5 || rcv.GetDouble(gb, rvF) != -2.25 {
		t.Error("values corrupted")
	}
	if rcv.GetRef(gb, rnF) != got {
		t.Error("cycle broken")
	}
}

func TestRoundTripSharedObject(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	ck := snd.MustLoad("Cell")
	pk := snd.MustLoad("Pair")

	c := snd.MustNew(ck)
	cp := snd.Pin(c)
	p := snd.MustNew(pk)
	c = cp.Addr()
	cp.Release()
	snd.SetDouble(c, ck.FieldByName("v"), 42)
	snd.SetRef(p, pk.FieldByName("a"), c)
	snd.SetRef(p, pk.FieldByName("b"), c)

	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.WriteObject(p); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err := NewReader(rcv, &buf).ReadObject()
	if err != nil {
		t.Fatal(err)
	}
	rpk := rcv.MustLoad("Pair")
	ga := rcv.GetRef(got, rpk.FieldByName("a"))
	gb := rcv.GetRef(got, rpk.FieldByName("b"))
	if ga != gb {
		t.Error("shared object duplicated within one stream")
	}
	if w.Objects != 2 {
		t.Errorf("sent %d objects, want 2", w.Objects)
	}
}

func TestRoundTripArraysAndStrings(t *testing.T) {
	snd, rcv, sky := testCluster(t)

	ak := snd.MustLoad(vm.StringClass + "[]")
	arr := snd.MustNewArray(ak, 3)
	arrPin := snd.Pin(arr)
	for i, s := range []string{"alpha", "beta", ""} {
		so := snd.MustNewString(s)
		snd.ArraySetRef(arrPin.Addr(), i, so)
	}

	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.WriteObject(arrPin.Addr()); err != nil {
		t.Fatal(err)
	}
	w.Close()
	arrPin.Release()

	got, err := NewReader(rcv, &buf).ReadObject()
	if err != nil {
		t.Fatal(err)
	}
	if rcv.ArrayLen(got) != 3 {
		t.Fatalf("array len = %d", rcv.ArrayLen(got))
	}
	want := []string{"alpha", "beta", ""}
	for i := range want {
		if s := rcv.GoString(rcv.ArrayGetRef(got, i)); s != want[i] {
			t.Errorf("elem %d = %q, want %q", i, s, want[i])
		}
	}
}

func TestRoundTripPrimitiveArrays(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	ak := snd.MustLoad("double[]")
	arr := snd.MustNewArray(ak, 5)
	vals := []float64{0, math.Pi, -1e300, math.Inf(1), 1e-300}
	for i, v := range vals {
		snd.ArraySetDouble(arr, i, v)
	}
	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.WriteObject(arr); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err := NewReader(rcv, &buf).ReadObject()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if g := rcv.ArrayGetDouble(got, i); g != v {
			t.Errorf("elem %d = %v, want %v", i, g, v)
		}
	}
}

func TestHashcodePreservation(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	d := newDate(t, snd, 2020, 1, 1)
	want := snd.HashCode(d)

	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.WriteObject(d); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err := NewReader(rcv, &buf).ReadObject()
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := rcv.Heap.HashOf(got); !ok || h != want {
		t.Errorf("hashcode not preserved: %#x,%v want %#x", h, ok, want)
	}
}

func TestStreamingManySegments(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	ck := snd.MustLoad("Cell")
	vF, nF := ck.FieldByName("v"), ck.FieldByName("next")

	// A long list forces many small-segment flushes.
	const n = 2000
	head := snd.MustNew(ck)
	hp := snd.Pin(head)
	prev := snd.Pin(head)
	snd.SetDouble(head, vF, 0)
	for i := 1; i < n; i++ {
		c := snd.MustNew(ck)
		snd.SetDouble(c, vF, float64(i))
		snd.SetRef(prev.Addr(), nF, c)
		prev.Set(c)
	}
	prev.Release()

	var buf bytes.Buffer
	w := sky.NewWriter(&buf, WithBufferSize(256)) // tiny buffer
	if err := w.WriteObject(hp.Addr()); err != nil {
		t.Fatal(err)
	}
	w.Close()
	hp.Release()

	r := NewReader(rcv, &buf)
	got, err := r.ReadObject()
	if err != nil {
		t.Fatal(err)
	}
	rck := rcv.MustLoad("Cell")
	rvF, rnF := rck.FieldByName("v"), rck.FieldByName("next")
	for i := 0; i < n; i++ {
		if got == heap.Null {
			t.Fatalf("list truncated at %d", i)
		}
		if rcv.GetDouble(got, rvF) != float64(i) {
			t.Fatalf("cell %d corrupted", i)
		}
		got = rcv.GetRef(got, rnF)
	}
	if got != heap.Null {
		t.Error("trailing cells")
	}
	if len(r.chunks) < 10 {
		t.Errorf("expected many chunks, got %d", len(r.chunks))
	}
}

func TestMultipleRootsSharingSubgraph(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	ck := snd.MustLoad("Cell")
	pk := snd.MustLoad("Pair")

	shared := snd.MustNew(ck)
	sp := snd.Pin(shared)
	snd.SetDouble(shared, ck.FieldByName("v"), 7)

	p1 := snd.MustNew(pk)
	p1p := snd.Pin(p1)
	p2 := snd.MustNew(pk)
	p1 = p1p.Addr()
	p1p.Release()
	shared = sp.Addr()
	sp.Release()
	snd.SetRef(p1, pk.FieldByName("a"), shared)
	snd.SetRef(p2, pk.FieldByName("b"), shared)

	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.WriteObject(p1); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteObject(p2); err != nil {
		t.Fatal(err)
	}
	// Re-sending an already-sent root emits only a backward reference.
	objsBefore := w.Objects
	if err := w.WriteObject(p1); err != nil {
		t.Fatal(err)
	}
	if w.Objects != objsBefore {
		t.Error("re-send copied objects again")
	}
	w.Close()

	r := NewReader(rcv, &buf)
	roots, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 3 {
		t.Fatalf("%d roots", len(roots))
	}
	rpk := rcv.MustLoad("Pair")
	s1 := rcv.GetRef(roots[0], rpk.FieldByName("a"))
	s2 := rcv.GetRef(roots[1], rpk.FieldByName("b"))
	if s1 != s2 {
		t.Error("subgraph shared across roots was duplicated")
	}
	if roots[0] != roots[2] {
		t.Error("backward reference did not resolve to the same root")
	}
}

func TestShufflePhasesResendObjects(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	d := newDate(t, snd, 1999, 12, 31)
	dp := snd.Pin(d)
	defer dp.Release()

	send := func() int {
		var buf bytes.Buffer
		w := sky.NewWriter(&buf)
		if err := w.WriteObject(dp.Addr()); err != nil {
			t.Fatal(err)
		}
		w.Close()
		got, err := NewReader(rcv, &buf).ReadObject()
		if err != nil {
			t.Fatal(err)
		}
		return int(w.Objects) + int(uint64(got)*0) // use got
	}
	if n := send(); n != 2 {
		t.Fatalf("first send copied %d objects", n)
	}
	// New phase: the same objects must be copied afresh.
	sky.ShuffleStart()
	if n := send(); n != 2 {
		t.Fatalf("second phase copied %d objects, want 2", n)
	}
}

func TestWriterPhaseGuard(t *testing.T) {
	snd, _, sky := testCluster(t)
	d := newDate(t, snd, 2000, 1, 1)
	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	sky.ShuffleStart()
	if err := w.WriteObject(d); err == nil {
		t.Error("writer spanning phases did not error")
	}
}

func TestNullRoot(t *testing.T) {
	_, rcv, sky := testCluster(t)
	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.WriteObject(heap.Null); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err := NewReader(rcv, &buf).ReadObject()
	if err != nil {
		t.Fatal(err)
	}
	if got != heap.Null {
		t.Error("null root arrived non-null")
	}
}

func TestFieldUpdateOnReceive(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	if err := rcv.RegisterUpdate("Date", "day", func(rt *vm.Runtime, obj heap.Addr) uint64 { return 1 }); err != nil {
		t.Fatal(err)
	}
	d := newDate(t, snd, 2018, 3, 24)
	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.WriteObject(d); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err := NewReader(rcv, &buf).ReadObject()
	if err != nil {
		t.Fatal(err)
	}
	dk := rcv.MustLoad("Date")
	if rcv.GetInt(got, dk.FieldByName("day")) != 1 {
		t.Error("field update not applied")
	}
	if rcv.GetInt(got, dk.FieldByName("month")) != 3 {
		t.Error("unrelated field touched")
	}
}

func TestReceiverSurvivesGC(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	d := newDate(t, snd, 2018, 3, 24)
	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.WriteObject(d); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err := NewReader(rcv, &buf).ReadObject()
	if err != nil {
		t.Fatal(err)
	}
	// Input buffers are pinned GC roots: the received graph survives a
	// full GC without the application holding any handle.
	for i := 0; i < 100; i++ {
		rcv.MustNewArray(rcv.MustLoad("long[]"), 64)
	}
	rcv.GC.FullGC()
	dk := rcv.MustLoad("Date")
	yk := rcv.MustLoad("Year4D")
	yo := rcv.GetRef(got, dk.FieldByName("year"))
	if rcv.GetInt(yo, yk.FieldByName("value")) != 2018 {
		t.Error("received graph corrupted by GC")
	}
}

func TestReceivedObjectsReferencingYoungSurviveScavenge(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	d := newDate(t, snd, 2018, 3, 24)
	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.WriteObject(d); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err := NewReader(rcv, &buf).ReadObject()
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the received object to point at a fresh young object, then
	// scavenge: the card table over buffer space must keep it alive.
	dk := rcv.MustLoad("Date")
	yk := rcv.MustLoad("Year4D")
	fresh := rcv.MustNew(yk)
	rcv.SetInt(fresh, yk.FieldByName("value"), 777)
	rcv.SetRef(got, dk.FieldByName("year"), fresh)
	if !rcv.GC.Scavenge() {
		t.Fatal("scavenge refused")
	}
	yo := rcv.GetRef(got, dk.FieldByName("year"))
	if yo == heap.Null || rcv.GetInt(yo, yk.FieldByName("value")) != 777 {
		t.Error("young object referenced from input buffer lost")
	}
}

func TestFreeReleasesBufferObjects(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	d := newDate(t, snd, 2018, 3, 24)
	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.WriteObject(d); err != nil {
		t.Fatal(err)
	}
	w.Close()
	r := NewReader(rcv, &buf)
	if _, err := r.ReadObject(); err != nil {
		t.Fatal(err)
	}
	r.Free()
	// After Free the collector must not walk the chunk (no panic on GC).
	rcv.GC.FullGC()
}

func TestConcurrentWritersSharedObjects(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	ck := snd.MustLoad("Cell")
	pk := snd.MustLoad("Pair")

	shared := snd.MustNew(ck)
	sp := snd.Pin(shared)
	defer sp.Release()
	snd.SetDouble(sp.Addr(), ck.FieldByName("v"), 3.5)

	const writers = 4
	roots := make([]heap.Addr, writers)
	for i := range roots {
		p := snd.MustNew(pk)
		snd.SetRef(p, pk.FieldByName("a"), sp.Addr())
		roots[i] = p
		h := snd.Pin(p)
		defer h.Release()
	}

	bufs := make([]bytes.Buffer, writers)
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := sky.NewWriter(&bufs[i])
			if err := w.WriteObject(roots[i]); err != nil {
				errs[i] = err
				return
			}
			errs[i] = w.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	// The shared object's baddr word can only be claimed by one stream;
	// the others must have gone through the thread-local hash table
	// (§4.2 Support for Threads).
	if sky.Snapshot().OverflowHits == 0 {
		t.Error("no overflow-table hits despite cross-stream sharing")
	}
	// Every stream must carry its own copy of the shared object
	// ("distinct copies in multiple output buffers", §4.2).
	for i := range bufs {
		got, err := NewReader(rcv, &bufs[i]).ReadObject()
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
		rpk := rcv.MustLoad("Pair")
		c := rcv.GetRef(got, rpk.FieldByName("a"))
		if rcv.GetDouble(c, rcv.MustLoad("Cell").FieldByName("v")) != 3.5 {
			t.Fatalf("stream %d shared object corrupted", i)
		}
	}
}

func TestLayoutMismatchRejected(t *testing.T) {
	// The sender heap has no baddr word, the receiver's has one: a stream
	// carries its sender's layout, and the receiver refuses any but its own.
	cp := testClusterPath()
	reg, rcv := newSenderFor(t, cp)
	sndCfg := heap.DefaultConfig()
	sndCfg.Layout = klass.Layout{Baddr: false}
	snd, err := vm.NewRuntime(cp, vm.Options{Name: "vanilla", Heap: sndCfg, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	d := newDate(t, snd, 2020, 5, 5)
	var buf bytes.Buffer
	w := New(snd).NewWriter(&buf)
	if err := w.WriteObject(d); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, err = NewReader(rcv, &buf).ReadObject()
	if de, ok := AsDecodeError(err); !ok || de.Kind != DecodeFrame {
		t.Errorf("layout mismatch: ReadObject = %v, want a frame error", err)
	}
}

// Two heaps without the baddr header word exchange both wires: every visit
// goes through the sender's hash table, and images are one word shorter.
func TestVanillaLayoutRoundTrip(t *testing.T) {
	cp := testClusterPath()
	cfg := heap.DefaultConfig()
	cfg.Layout = klass.Layout{Baddr: false}
	reg := registry.InProc{R: registry.NewRegistry()}
	var rts [2]*vm.Runtime
	for i := range rts {
		rt, err := vm.NewRuntime(cp, vm.Options{Name: "vanilla", Heap: cfg, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = rt
	}
	snd, rcv := rts[0], rts[1]
	for _, opts := range [][]WriterOption{nil, {WithCompactHeaders()}} {
		d := newDate(t, snd, 2030, 12, 1)
		want := snd.HashCode(d)
		var buf bytes.Buffer
		w := New(snd).NewWriter(&buf, opts...)
		if err := w.WriteObject(d); err != nil {
			t.Fatal(err)
		}
		w.Close()
		got, err := NewReader(rcv, &buf).ReadObject()
		if err != nil {
			t.Fatal(err)
		}
		dk, yk := rcv.MustLoad("Date"), rcv.MustLoad("Year4D")
		if rcv.GetInt(got, dk.FieldByName("month")) != 12 ||
			rcv.GetInt(rcv.GetRef(got, dk.FieldByName("year")), yk.FieldByName("value")) != 2030 {
			t.Errorf("compact=%v: fields or reference corrupted", opts != nil)
		}
		if h, ok := rcv.Heap.HashOf(got); !ok || h != want {
			t.Errorf("compact=%v: hashcode lost", opts != nil)
		}
	}
}

func TestDetachedRuntimeCannotSend(t *testing.T) {
	cp := klass.NewPath()
	cp.MustDefine(&klass.ClassDef{Name: "Date", Fields: []klass.FieldDef{{Name: "x", Kind: klass.Int32}}})
	rt, err := vm.NewRuntime(cp, vm.Options{Name: "detached"})
	if err != nil {
		t.Fatal(err)
	}
	sky := New(rt)
	d := rt.MustNew(rt.MustLoad("Date"))
	w := sky.NewWriter(io.Discard)
	if err := w.WriteObject(d); err == nil {
		t.Error("sending without a registry succeeded")
	}
}

// Property: arbitrary random object graphs survive the round trip with
// structure and primitive payloads intact.
func TestRoundTripRandomGraphsQuick(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	ck := snd.MustLoad("Cell")
	pk := snd.MustLoad("Pair")
	vF, nF := ck.FieldByName("v"), ck.FieldByName("next")

	f := func(vals []float64, links []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 40 {
			vals = vals[:40]
		}
		// Build cells, then wire random next links (possibly cyclic).
		cells := make([]heap.Addr, len(vals))
		pins := make([]interface{ Release() }, 0, len(vals)+1)
		defer func() {
			for _, p := range pins {
				p.Release()
			}
		}()
		cellPins := make([]*struct{ h interface{ Addr() heap.Addr } }, 0)
		_ = cellPins
		handles := make([]interface {
			Addr() heap.Addr
			Release()
		}, len(vals))
		for i, v := range vals {
			c := snd.MustNew(ck)
			snd.SetDouble(c, vF, v)
			h := snd.Pin(c)
			handles[i] = h
			pins = append(pins, h)
			cells[i] = c
		}
		for i := range cells {
			if len(links) == 0 {
				break
			}
			tgt := int(links[i%len(links)]) % len(cells)
			snd.SetRef(handles[i].Addr(), nF, handles[tgt].Addr())
		}
		root := snd.MustNew(pk)
		snd.SetRef(root, pk.FieldByName("a"), handles[0].Addr())
		snd.SetRef(root, pk.FieldByName("b"), handles[len(cells)-1].Addr())

		var buf bytes.Buffer
		sky.ShuffleStart()
		w := sky.NewWriter(&buf, WithBufferSize(512))
		if err := w.WriteObject(root); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		got, err := NewReader(rcv, &buf).ReadObject()
		if err != nil {
			return false
		}
		// Walk both graphs in lockstep (bounded by size).
		type pairT struct{ s, r heap.Addr }
		seen := make(map[pairT]bool)
		var walk func(s, r heap.Addr, depth int) bool
		walk = func(s, r heap.Addr, depth int) bool {
			if depth > 200 {
				return true
			}
			if (s == heap.Null) != (r == heap.Null) {
				return false
			}
			if s == heap.Null || seen[pairT{s, r}] {
				return true
			}
			seen[pairT{s, r}] = true
			sk := snd.KlassOf(s)
			rk := rcv.KlassOf(r)
			if sk.Name != rk.Name {
				return false
			}
			if sk.Name == "Cell" {
				if snd.GetDouble(s, vF) != rcv.GetDouble(r, rcv.MustLoad("Cell").FieldByName("v")) {
					return false
				}
				return walk(snd.GetRef(s, nF), rcv.GetRef(r, rcv.MustLoad("Cell").FieldByName("next")), depth+1)
			}
			aok := walk(snd.GetRef(s, pk.FieldByName("a")), rcv.GetRef(r, rcv.MustLoad("Pair").FieldByName("a")), depth+1)
			bok := walk(snd.GetRef(s, pk.FieldByName("b")), rcv.GetRef(r, rcv.MustLoad("Pair").FieldByName("b")), depth+1)
			return aok && bok
		}
		return walk(root, got, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestByteCompositionStats(t *testing.T) {
	snd, _, sky := testCluster(t)
	d := newDate(t, snd, 2018, 3, 24)
	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.WriteObject(d); err != nil {
		t.Fatal(err)
	}
	w.Close()
	st := sky.Snapshot()
	if st.ObjectsSent != 2 {
		t.Errorf("ObjectsSent = %d", st.ObjectsSent)
	}
	if st.BytesSent != uint64(w.Bytes) {
		t.Errorf("BytesSent = %d, writer says %d", st.BytesSent, w.Bytes)
	}
	if st.HeaderBytes+st.PaddingBytes+st.PointerBytes > st.BytesSent {
		t.Error("composition exceeds total")
	}
	if st.HeaderBytes == 0 || st.PointerBytes == 0 {
		t.Error("composition not accounted")
	}
}

func TestConcurrentWritersShareLargeGraph(t *testing.T) {
	// Race-detector stress for the §4.2 concurrent-sender path: a long
	// chain shared by every writer means thousands of overlapping baddr
	// CAS claims and whole-object copies of the same words. Any
	// non-atomic access to a claimable header word surfaces here under
	// -race long before it corrupts a real shuffle.
	snd, rcv, sky := testCluster(t)
	ck := snd.MustLoad("Cell")
	vf := ck.FieldByName("v")
	nf := ck.FieldByName("next")

	const chain = 4000
	head := snd.Pin(snd.MustNew(ck))
	snd.SetDouble(head.Addr(), vf, 0)
	for i := 1; i < chain; i++ {
		c := snd.MustNew(ck)
		next := snd.Pin(c)
		snd.SetDouble(next.Addr(), vf, float64(i))
		snd.SetRef(next.Addr(), nf, head.Addr())
		head.Release()
		head = next
	}
	defer head.Release()

	const writers = 4
	bufs := make([]bytes.Buffer, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := sky.NewWriter(&bufs[i])
			if err := w.WriteObject(head.Addr()); err != nil {
				errs[i] = err
				return
			}
			errs[i] = w.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}

	// Every stream must carry an intact private copy of the whole chain.
	rck := rcv.MustLoad("Cell")
	rvf := rck.FieldByName("v")
	rnf := rck.FieldByName("next")
	for i := range bufs {
		r := NewReader(rcv, &bufs[i])
		got, err := r.ReadObject()
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
		n, want := 0, float64(chain-1)
		for a := got; a != heap.Null; a = rcv.GetRef(a, rnf) {
			if v := rcv.GetDouble(a, rvf); v != want {
				t.Fatalf("stream %d node %d: v=%f want %f", i, n, v, want)
			}
			n++
			want--
		}
		if n != chain {
			t.Fatalf("stream %d chain length %d, want %d", i, n, chain)
		}
		r.Free()
		rcv.GC.FullGC() // reclaim before the next stream lands
	}
}
