package vm

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/registry"
)

func testPath() *klass.Path {
	p := klass.NewPath()
	p.MustDefine(
		&klass.ClassDef{Name: "Point", Fields: []klass.FieldDef{
			{Name: "x", Kind: klass.Int32},
			{Name: "y", Kind: klass.Int32},
		}},
		&klass.ClassDef{Name: "Node", Fields: []klass.FieldDef{
			{Name: "val", Kind: klass.Int64},
			{Name: "next", Kind: klass.Ref, Class: "Node"},
		}},
		&klass.ClassDef{Name: "Point3D", Super: "Point", Fields: []klass.FieldDef{
			{Name: "z", Kind: klass.Int32},
		}},
	)
	return p
}

func testRuntime(t *testing.T) *Runtime {
	t.Helper()
	rt, err := NewRuntime(testPath(), Options{Name: "test"})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func smallRuntime(t *testing.T) *Runtime {
	t.Helper()
	rt, err := NewRuntime(testPath(), Options{Name: "small", Heap: heap.Config{
		EdenSize:     64 << 10,
		SurvivorSize: 16 << 10,
		OldSize:      512 << 10,
		BufferSize:   64 << 10,
		Layout:       klass.Layout{Baddr: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestLoadClassIdempotent(t *testing.T) {
	rt := testRuntime(t)
	a := rt.MustLoad("Point")
	b := rt.MustLoad("Point")
	if a != b {
		t.Error("LoadClass returned distinct klasses for one name")
	}
	if rt.KlassAt(a.LID) != a {
		t.Error("KlassAt(LID) mismatch")
	}
}

func TestLoadClassMissing(t *testing.T) {
	rt := testRuntime(t)
	if _, err := rt.LoadClass("NoSuchClass"); err == nil {
		t.Error("loading a missing class succeeded")
	}
}

func TestLoadSuperChain(t *testing.T) {
	rt := testRuntime(t)
	k := rt.MustLoad("Point3D")
	if k.Super == nil || k.Super.Name != "Point" {
		t.Fatal("superclass not resolved")
	}
	if k.FieldByName("x") == nil || k.FieldByName("z") == nil {
		t.Fatal("fields not inherited")
	}
}

func TestNewAndFieldAccess(t *testing.T) {
	rt := testRuntime(t)
	k := rt.MustLoad("Point")
	p := rt.MustNew(k)
	rt.SetInt(p, k.FieldByName("x"), -42)
	rt.SetInt(p, k.FieldByName("y"), 17)
	if rt.GetInt(p, k.FieldByName("x")) != -42 {
		t.Error("x readback (sign extension) failed")
	}
	if rt.GetInt(p, k.FieldByName("y")) != 17 {
		t.Error("y readback failed")
	}
	if rt.KlassOf(p) != k {
		t.Error("KlassOf mismatch")
	}
	if rt.ObjectSize(p) != k.Size {
		t.Error("ObjectSize mismatch")
	}
}

func TestArrays(t *testing.T) {
	rt := testRuntime(t)
	ak := rt.MustLoad("long[]")
	a := rt.MustNewArray(ak, 10)
	for i := 0; i < 10; i++ {
		rt.ArraySetLong(a, i, int64(i*i)-5)
	}
	for i := 0; i < 10; i++ {
		if rt.ArrayGetLong(a, i) != int64(i*i)-5 {
			t.Fatalf("elem %d wrong", i)
		}
	}
	if rt.ArrayLen(a) != 10 {
		t.Error("ArrayLen wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-bounds access did not panic")
			}
		}()
		rt.ArrayGetLong(a, 10)
	}()
}

func TestStringsRoundTrip(t *testing.T) {
	rt := testRuntime(t)
	for _, s := range []string{"", "hello", "日本語 text", strings.Repeat("x", 1000)} {
		a := rt.MustNewString(s)
		if got := rt.GoString(a); got != s {
			t.Errorf("GoString = %q, want %q", got, s)
		}
	}
}

func TestStringHashMatchesJava(t *testing.T) {
	// Known Java String.hashCode values.
	cases := map[string]int32{"": 0, "a": 97, "ab": 3105, "hello": 99162322}
	for s, want := range cases {
		if got := StringHash(s); got != want {
			t.Errorf("StringHash(%q) = %d, want %d", s, got, want)
		}
	}
}

func TestHashCodeStable(t *testing.T) {
	rt := testRuntime(t)
	p := rt.MustNew(rt.MustLoad("Point"))
	h1 := rt.HashCode(p)
	h2 := rt.HashCode(p)
	if h1 != h2 {
		t.Error("HashCode not stable")
	}
}

func TestGCPreservesLinkedList(t *testing.T) {
	rt := smallRuntime(t)
	k := rt.MustLoad("Node")
	valF, nextF := k.FieldByName("val"), k.FieldByName("next")

	const n = 500
	head := rt.MustNew(k)
	rt.SetInt(head, valF, 0)
	hd := rt.Pin(head)
	defer hd.Release()
	prev := head
	prevPin := rt.Pin(prev)
	for i := 1; i < n; i++ {
		node := rt.MustNew(k) // may GC
		prev = prevPin.Addr()
		rt.SetInt(node, valF, int64(i))
		rt.SetRef(prev, nextF, node)
		prevPin.Set(node)
	}
	prevPin.Release()

	// Allocate garbage to force several scavenges and a full GC.
	for i := 0; i < 2000; i++ {
		rt.MustNewArray(rt.MustLoad("long[]"), 16)
	}
	rt.GC.FullGC()

	cur := hd.Addr()
	for i := 0; i < n; i++ {
		if cur == heap.Null {
			t.Fatalf("list truncated at %d", i)
		}
		if got := rt.GetInt(cur, valF); got != int64(i) {
			t.Fatalf("node %d holds %d", i, got)
		}
		cur = rt.GetRef(cur, nextF)
	}
	if cur != heap.Null {
		t.Error("list longer than built")
	}
	if rt.GC.Stats().Scavenges == 0 && rt.GC.Stats().FullGCs == 0 {
		t.Error("test exercised no collection")
	}
}

func TestGCPreservesHashcode(t *testing.T) {
	rt := smallRuntime(t)
	k := rt.MustLoad("Point")
	p := rt.MustNew(k)
	h := rt.Pin(p)
	defer h.Release()
	want := rt.HashCode(p)
	for i := 0; i < 3000; i++ {
		rt.MustNewArray(rt.MustLoad("long[]"), 16)
	}
	rt.GC.FullGC()
	if got := rt.HashCode(h.Addr()); got != want {
		t.Errorf("hash changed across GC: %#x -> %#x", want, got)
	}
	if h.Addr() == p && rt.GC.Stats().Scavenges == 0 {
		t.Log("object never moved; test weak")
	}
}

func TestOldToYoungViaCardTable(t *testing.T) {
	rt := smallRuntime(t)
	k := rt.MustLoad("Node")
	valF, nextF := k.FieldByName("val"), k.FieldByName("next")

	// Tenure one node via a full GC.
	old := rt.MustNew(k)
	oldPin := rt.Pin(old)
	defer oldPin.Release()
	rt.GC.FullGC()
	old = oldPin.Addr()
	if !rt.Heap.InOld(old) {
		t.Fatal("object not tenured by full GC")
	}

	// Point the tenured node at a fresh young node (write barrier dirties
	// the card), then scavenge; the young node must survive via the card.
	young := rt.MustNew(k)
	rt.SetInt(young, valF, 77)
	rt.SetRef(oldPin.Addr(), nextF, young)
	if !rt.GC.Scavenge() {
		t.Fatal("scavenge refused")
	}
	got := rt.GetRef(oldPin.Addr(), nextF)
	if got == heap.Null || rt.GetInt(got, valF) != 77 {
		t.Fatal("young object referenced only from old gen was lost")
	}
	if rt.Heap.InYoung(got) && rt.Heap.Eden.Contains(got) {
		t.Error("survivor left in eden")
	}
}

func TestHashMapPutGet(t *testing.T) {
	rt := testRuntime(t)
	m, err := rt.NewHashMap(16)
	if err != nil {
		t.Fatal(err)
	}
	mPin := rt.Pin(m)
	defer mPin.Release()
	keys := make([]*gcHandle, 0, 100)
	type gcHandlePair struct{ k, v heap.Addr }
	var pairs []gcHandlePair
	for i := 0; i < 100; i++ {
		k := rt.MustNewString("key")
		kp := rt.Pin(k)
		v := rt.MustNew(rt.MustLoad("Point"))
		vp := rt.Pin(v)
		if err := rt.HashMapPut(mPin.Addr(), kp.Addr(), vp.Addr()); err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, gcHandlePair{kp.Addr(), vp.Addr()})
		keys = append(keys, &gcHandle{kp, vp})
	}
	if rt.HashMapLen(mPin.Addr()) != 100 {
		t.Fatalf("len = %d", rt.HashMapLen(mPin.Addr()))
	}
	for _, p := range pairs {
		got, ok := rt.HashMapGet(mPin.Addr(), p.k)
		if !ok || got != p.v {
			t.Fatal("lookup failed")
		}
	}
	if !rt.HashMapValid(mPin.Addr()) {
		t.Error("fresh map invalid")
	}
	for _, h := range keys {
		h.a.Release()
		h.b.Release()
	}
}

type gcHandle struct{ a, b interface{ Release() } }

func TestArrayList(t *testing.T) {
	rt := testRuntime(t)
	l, err := rt.NewArrayList(2)
	if err != nil {
		t.Fatal(err)
	}
	lp := rt.Pin(l)
	defer lp.Release()
	for i := 0; i < 50; i++ {
		s := rt.MustNewString("x")
		if err := rt.ListAdd(lp.Addr(), s); err != nil {
			t.Fatal(err)
		}
	}
	if rt.ListLen(lp.Addr()) != 50 {
		t.Fatalf("len = %d", rt.ListLen(lp.Addr()))
	}
	for i := 0; i < 50; i++ {
		if rt.GoString(rt.ListGet(lp.Addr(), i)) != "x" {
			t.Fatal("element corrupted")
		}
	}
}

func TestRegistryAssignsTIDs(t *testing.T) {
	reg := registry.NewRegistry()
	rt1, err := NewRuntime(testPath(), Options{Name: "w1", Registry: registry.InProc{R: reg}})
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := NewRuntime(testPath(), Options{Name: "w2", Registry: registry.InProc{R: reg}})
	if err != nil {
		t.Fatal(err)
	}
	// Load in different orders; TIDs must agree.
	k1 := rt1.MustLoad("Point")
	rt1.MustLoad("Node")
	rt2.MustLoad("Node")
	k2 := rt2.MustLoad("Point")
	if k1.TID < 0 || k1.TID != k2.TID {
		t.Errorf("Point TIDs differ: %d vs %d", k1.TID, k2.TID)
	}
	k, err := rt2.KlassByTID(k1.TID)
	if err != nil || k.Name != "Point" {
		t.Errorf("KlassByTID = %v, %v", k, err)
	}
}

// lyingRegistry answers lookups of one class with a fixed type ID.
type lyingRegistry struct {
	registry.Client
	class string
	tid   int32
}

func (r lyingRegistry) Lookup(name string) (int32, error) {
	if name == r.class {
		return r.tid, nil
	}
	return r.Client.Lookup(name)
}

// A type ID indexes the runtime's dense table, so a registry answer outside
// [0, 1<<20) is refused at class load, as a typed error, and the class is not
// loaded under it.
func TestLoadClassRefusesTypeIDOutOfRange(t *testing.T) {
	for _, tid := range []int32{-1, 1 << 20} {
		reg := lyingRegistry{Client: registry.InProc{R: registry.NewRegistry()}, class: "Point", tid: tid}
		rt, err := NewRuntime(testPath(), Options{Name: "lied-to", Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		_, err = rt.LoadClass("Point")
		var re *TypeIDRangeError
		if !errors.As(err, &re) || re.TID != tid || re.Class != "Point" {
			t.Errorf("LoadClass under type ID %d = %v, want a TypeIDRangeError", tid, err)
		}
		if rt.KlassByName("Point") != nil {
			t.Errorf("Point was loaded under type ID %d", tid)
		}
		if k, err := rt.LoadClass("Node"); err != nil || k.TID < 0 {
			t.Errorf("a class the registry answered honestly: %v, %v", k, err)
		}
	}
	reg := lyingRegistry{Client: registry.InProc{R: registry.NewRegistry()}, class: "Point", tid: 1<<20 - 1}
	rt, err := NewRuntime(testPath(), Options{Name: "edge", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	k := rt.MustLoad("Point")
	if got, err := rt.KlassByTID(1<<20 - 1); err != nil || got != k {
		t.Errorf("KlassByTID(1<<20-1) = %v, %v, want Point", got, err)
	}
}

// Storing a field whose kind has no size of 1/2/4/8 would silently no-op
// (heap.StoreBytes panics instead), so a klass with such a field or element
// kind never enters the type ID table, where every walker of received bytes
// finds its classes: a stream naming it fails as a type error.
func TestCheckKlassKindsRejectsUndefinedSizes(t *testing.T) {
	rt, err := NewRuntime(testPath(), Options{Name: "kinds", Registry: registry.InProc{R: registry.NewRegistry()}})
	if err != nil {
		t.Fatal(err)
	}
	const tid = 40
	for _, bad := range []*klass.Klass{
		{Name: "Bad", TID: -1, Fields: []klass.Field{{Name: "x", Kind: klass.Invalid}}},
		{Name: "Bad[]", TID: -1, IsArray: true, Elem: klass.Invalid},
	} {
		if err := rt.enterTID(bad, tid); err == nil {
			t.Errorf("%s passed kind validation", bad.Name)
		}
		if bad.TID != -1 {
			t.Errorf("%s was given type ID %d", bad.Name, bad.TID)
		}
		if k, err := rt.KlassByTID(tid); err == nil {
			t.Errorf("type ID %d resolves to %s after %s was refused", tid, k.Name, bad.Name)
		}
	}
	for _, ok := range []*klass.Klass{
		{Name: "OK", Fields: []klass.Field{{Name: "x", Kind: klass.Int64}, {Name: "r", Kind: klass.Ref}}},
		{Name: "long[]", IsArray: true, Elem: klass.Int64},
	} {
		if err := rt.enterTID(ok, tid); err != nil {
			t.Errorf("well-formed class rejected: %v", err)
		}
		if k, err := rt.KlassByTID(tid); err != nil || k != ok {
			t.Errorf("KlassByTID(%d) = %v, %v, want %s", tid, k, err, ok.Name)
		}
	}
}

func TestRegisterUpdate(t *testing.T) {
	rt := testRuntime(t)
	if err := rt.RegisterUpdate("Point", "x", func(rt *Runtime, obj heap.Addr) uint64 { return 9 }); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterUpdate("Point", "nope", nil); err == nil {
		t.Error("registering an unknown field succeeded")
	}
	ups := rt.UpdatesFor(rt.MustLoad("Point"))
	if len(ups) != 1 || ups[0].Field.Name != "x" {
		t.Errorf("UpdatesFor = %+v", ups)
	}
}

// Property: identity hashes are 31-bit and reasonably distinct.
func TestHashDistribution(t *testing.T) {
	rt := testRuntime(t)
	k := rt.MustLoad("Point")
	seen := make(map[uint32]bool)
	dups := 0
	for i := 0; i < 1000; i++ {
		h := rt.HashCode(rt.MustNew(k))
		if h&0x80000000 != 0 {
			t.Fatal("hash exceeded 31 bits")
		}
		if seen[h] {
			dups++
		}
		seen[h] = true
	}
	if dups > 2 {
		t.Errorf("%d duplicate hashes in 1000", dups)
	}
}

// Property: sub-word field writes never corrupt sibling fields.
func TestFieldIsolationQuick(t *testing.T) {
	rt := testRuntime(t)
	k := rt.MustLoad("Point")
	xF, yF := k.FieldByName("x"), k.FieldByName("y")
	p := rt.MustNew(k)
	f := func(x, y int32) bool {
		rt.SetInt(p, xF, int64(x))
		rt.SetInt(p, yF, int64(y))
		return rt.GetInt(p, xF) == int64(x) && rt.GetInt(p, yF) == int64(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestArrayBulkAccess: ArrayPutLongs / ArrayLongs move a whole integer array
// for one klass lookup, truncating and sign-extending exactly as the
// per-element accessors do, for every integer element width, at every
// width's edges, and without allocating.
func TestArrayBulkAccess(t *testing.T) {
	rt := testRuntime(t)
	src := []int64{-1, 0, 1, 127, -128, 128, 255, 1<<15 - 1, -(1 << 15), 1 << 15, 1<<16 + 3,
		1<<31 - 1, -(1 << 31), 1 << 31, 1<<32 + 7, 1<<62 + 5, math.MinInt64, math.MaxInt64}
	var dst []int64
	for _, name := range []string{"byte[]", "short[]", "int[]", "long[]"} {
		bulk := rt.MustNewArray(rt.MustLoad(name), len(src))
		rt.ArrayPutLongs(bulk, src)
		each := rt.MustNewArray(rt.MustLoad(name), len(src))
		for i, v := range src {
			rt.ArraySetLong(each, i, v)
		}
		dst = rt.ArrayLongs(bulk, dst)
		if len(dst) != len(src) {
			t.Fatalf("%s: ArrayLongs returned %d elements, want %d", name, len(dst), len(src))
		}
		for i := range src {
			if want := rt.ArrayGetLong(each, i); dst[i] != want || rt.ArrayGetLong(bulk, i) != want {
				t.Errorf("%s[%d]: bulk %d / bulk-written %d, per-element %d", name, i, dst[i], rt.ArrayGetLong(bulk, i), want)
			}
		}
		if n := testing.AllocsPerRun(50, func() {
			rt.ArrayPutLongs(bulk, src)
			dst = rt.ArrayLongs(bulk, dst)
		}); n != 0 {
			t.Errorf("%s: a bulk write and read allocate %v times", name, n)
		}
	}
	if got := rt.ArrayLongs(rt.MustNewArray(rt.MustLoad("long[]"), 0), dst); len(got) != 0 {
		t.Errorf("zero-length array read as %d elements", len(got))
	}

	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	long3 := rt.MustNewArray(rt.MustLoad("long[]"), 3)
	mustPanic("ArrayPutLongs of the wrong length", func() { rt.ArrayPutLongs(long3, src) })
	refs := rt.MustNewArray(rt.MustLoad("Point[]"), 3)
	mustPanic("ArrayLongs on a reference array", func() { rt.ArrayLongs(refs, nil) })
	mustPanic("ArrayPutLongs on a reference array", func() { rt.ArrayPutLongs(refs, src[:3]) })
	mustPanic("ArrayLongs on a double[]", func() { rt.ArrayLongs(rt.MustNewArray(rt.MustLoad("double[]"), 3), nil) })
	mustPanic("ArrayLongs on a non-array", func() { rt.ArrayLongs(rt.MustNew(rt.MustLoad("Point")), nil) })
}

// A typed primitive setter aimed at a reference field or element panics and
// leaves the reference as it was: a pointer written there would bypass the
// card-table barrier that SetRef and ArraySetRef apply.
func TestPrimitiveSetterOnReferencePanics(t *testing.T) {
	rt := testRuntime(t)
	nk := rt.MustLoad("Node")
	next := nk.FieldByName("next")
	n := rt.MustNew(nk)
	rt.SetRef(n, next, n)
	arr := rt.MustNewArray(rt.MustLoad("Node[]"), 1)
	rt.ArraySetRef(arr, 0, n)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"SetLong", func() { rt.SetLong(n, next, 7) }},
		{"SetInt", func() { rt.SetInt(n, next, 7) }},
		{"ArraySetLong", func() { rt.ArraySetLong(arr, 0, 7) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a reference slot did not panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
	if rt.GetRef(n, next) != n || rt.ArrayGetRef(arr, 0) != n {
		t.Error("a refused primitive store changed a reference")
	}
}
