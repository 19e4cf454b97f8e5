package core

import (
	"bytes"
	"io"
	"testing"

	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/registry"
	"skyway/internal/vm"
)

// FuzzArenaHandle drives adversarial relativized segments through the arena
// decode path and its bounds-checked handles. The invariant extends
// FuzzReaderDecode's: every input either fails with a structured
// *DecodeError, or decodes — on BOTH paths, eager and lazy, with identical
// accept/reject verdicts — and every field of every decoded root is then
// readable through tagged handles with values identical to the eager copy.
// A read through a handle must never escape its region segment; the vm
// accessor layer panics on escape, which the fuzzer would surface.
func FuzzArenaHandle(f *testing.F) {
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
	)
	reg := registry.NewRegistry()
	for _, seed := range fuzzSeeds(f, cp, reg) {
		f.Add(seed)
	}
	// Arena-pointed adversarial frames: a reference whose relative address
	// aims below the bias, past the segment, or at an unaligned word — the
	// shapes a forged handle would need bounds checks to stop.
	hdr := []byte("SKYW\x02\x01\x00\x00")
	f.Add(append(append([]byte{}, hdr...), 'S', 0, 0, 0, 8, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8))
	f.Add(append(append([]byte{}, hdr...), frameMarks, 0, 0, 0, 5, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F))

	f.Fuzz(func(t *testing.T, data []byte) {
		newRT := func(name string) *vm.Runtime {
			rt, err := vm.NewRuntime(cp, vm.Options{Name: name, Registry: registry.InProc{R: reg}, Heap: fuzzHeap()})
			if err != nil {
				t.Fatal(err)
			}
			return rt
		}
		eagerRT, arenaRT := newRT("fuzz-eager"), newRT("fuzz-arena")
		erd := NewReader(eagerRT, bytes.NewReader(data))
		ard := NewReader(arenaRT, bytes.NewReader(data), WithArena())
		defer erd.Free()
		defer ard.Free()

		for {
			ea, eerr := erd.ReadObject()
			aa, aerr := ard.ReadObject()
			if (eerr == nil) != (aerr == nil) {
				t.Fatalf("decode verdicts diverge: eager err=%v, arena err=%v", eerr, aerr)
			}
			if eerr != nil {
				for _, err := range []error{eerr, aerr} {
					if err == io.EOF {
						continue
					}
					if _, ok := AsDecodeError(err); !ok {
						t.Fatalf("decoder surfaced unstructured error %T: %v", err, err)
					}
				}
				return
			}
			compareDates(t, eagerRT, arenaRT, ea, aa)
		}
	})
}

// compareDates walks the two-level Date graph on both runtimes, comparing
// every field read through the respective handles.
func compareDates(t *testing.T, ert, art *vm.Runtime, ea, aa heap.Addr) {
	t.Helper()
	if (ea == heap.Null) != (aa == heap.Null) {
		t.Fatal("null-ness of decoded roots diverges")
	}
	if ea == heap.Null {
		return
	}
	ek, ak := ert.KlassOf(ea), art.KlassOf(aa)
	if ek.Name != ak.Name {
		t.Fatalf("decoded root types diverge: eager %s, arena %s", ek.Name, ak.Name)
	}
	if ek.Name != "Date" {
		return
	}
	for _, field := range []string{"month", "day"} {
		fe, fa := ek.FieldByName(field), ak.FieldByName(field)
		if ev, av := ert.GetInt(ea, fe), art.GetInt(aa, fa); ev != av {
			t.Fatalf("Date.%s diverges: eager %d, arena %d", field, ev, av)
		}
	}
	ey := ert.GetRef(ea, ek.FieldByName("year"))
	ay := art.GetRef(aa, ak.FieldByName("year"))
	if (ey == heap.Null) != (ay == heap.Null) {
		t.Fatal("Date.year null-ness diverges")
	}
	if ey == heap.Null {
		return
	}
	eyk, ayk := ert.KlassOf(ey), art.KlassOf(ay)
	if eyk.Name != ayk.Name {
		t.Fatalf("Date.year types diverge: eager %s, arena %s", eyk.Name, ayk.Name)
	}
	if eyk.Name == "Year4D" {
		if ev, av := ert.GetInt(ey, eyk.FieldByName("value")), art.GetInt(ay, ayk.FieldByName("value")); ev != av {
			t.Fatalf("Year4D.value diverges: eager %d, arena %d", ev, av)
		}
	}
}
