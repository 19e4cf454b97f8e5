package vm

import (
	"errors"
	"testing"

	"skyway/internal/heap"
	"skyway/internal/klass"
)

func tinyRuntime(t *testing.T) *Runtime {
	t.Helper()
	rt, err := NewRuntime(testPath(), Options{Name: "tiny", Heap: heap.Config{
		EdenSize:     16 << 10,
		SurvivorSize: 4 << 10,
		OldSize:      32 << 10,
		BufferSize:   8 << 10,
		Layout:       klass.Layout{Baddr: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestOOMSurfacesTypedError(t *testing.T) {
	rt := tinyRuntime(t)
	k := rt.MustLoad("long[]")
	// Pin allocations until nothing fits anywhere.
	var pins []interface{ Release() }
	defer func() {
		for _, p := range pins {
			p.Release()
		}
	}()
	for {
		a, err := rt.NewArray(k, 512)
		if err != nil {
			if !errors.Is(err, ErrOOM) {
				t.Fatalf("allocation failed with %v, want ErrOOM", err)
			}
			return
		}
		pins = append(pins, rt.Pin(a))
	}
}

func TestOOMRecoversAfterRelease(t *testing.T) {
	rt := tinyRuntime(t)
	k := rt.MustLoad("long[]")
	var pins []interface{ Release() }
	for {
		a, err := rt.NewArray(k, 512)
		if err != nil {
			break
		}
		pins = append(pins, rt.Pin(a))
	}
	for _, p := range pins {
		p.Release()
	}
	// With the roots gone, allocation must succeed again (via GC).
	if _, err := rt.NewArray(k, 512); err != nil {
		t.Fatalf("allocation failed after releasing all roots: %v", err)
	}
}

func TestMustNewPanicsOnOOM(t *testing.T) {
	rt := tinyRuntime(t)
	k := rt.MustLoad("long[]")
	var pins []interface{ Release() }
	defer func() {
		if recover() == nil {
			t.Error("MustNewArray did not panic on OOM")
		}
		for _, p := range pins {
			p.Release()
		}
	}()
	for {
		pins = append(pins, rt.Pin(rt.MustNewArray(k, 512)))
	}
}

func TestHugeObjectGoesToOldGen(t *testing.T) {
	rt := tinyRuntime(t)
	k := rt.MustLoad("long[]")
	// Larger than eden (16 KiB) but fits old gen (32 KiB).
	a, err := rt.NewArray(k, 2500) // ~20 KiB
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Heap.InOld(a) {
		t.Error("eden-exceeding allocation not placed in old gen")
	}
}

func TestGoStringOfNullValueArray(t *testing.T) {
	rt := testRuntime(t)
	sk := rt.MustLoad(StringClass)
	s := rt.MustNew(sk) // value field left null
	if got := rt.GoString(s); got != "" {
		t.Errorf("GoString of null-value String = %q", got)
	}
}

func TestHashMapEach(t *testing.T) {
	rt := testRuntime(t)
	m, err := rt.NewHashMap(8)
	if err != nil {
		t.Fatal(err)
	}
	mp := rt.Pin(m)
	defer mp.Release()
	for i := 0; i < 25; i++ {
		k := rt.MustNewString("k")
		kp := rt.Pin(k)
		v := rt.MustNewString("v")
		vp := rt.Pin(v)
		if err := rt.HashMapPut(mp.Addr(), kp.Addr(), vp.Addr()); err != nil {
			t.Fatal(err)
		}
		kp.Release()
		vp.Release()
	}
	n := 0
	rt.HashMapEach(mp.Addr(), func(k, v heap.Addr) {
		if rt.GoString(k) != "k" || rt.GoString(v) != "v" {
			t.Error("entry corrupted")
		}
		n++
	})
	if n != 25 {
		t.Errorf("iterated %d entries", n)
	}
}

func TestRehashRejectsNonMap(t *testing.T) {
	rt := testRuntime(t)
	s := rt.MustNewString("not a map")
	if err := rt.HashMapRehash(s); err == nil {
		t.Error("rehash of a String succeeded")
	}
}
