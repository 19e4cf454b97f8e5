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

// fuzzHeap keeps per-iteration runtimes cheap: the fuzzer boots a fresh
// receiver for every input so a poisoned heap can never leak between cases.
func fuzzHeap() heap.Config {
	return heap.Config{
		EdenSize:     1 << 20,
		SurvivorSize: 256 << 10,
		OldSize:      4 << 20,
		BufferSize:   4 << 20,
		Layout:       klass.Layout{Baddr: true},
	}
}

// fuzzPath is FuzzReaderDecode's classpath.
func fuzzPath() *klass.Path {
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
	return cp
}

// fuzzTarget builds runtimes the way FuzzReaderDecode does — its classpath,
// one registry, fuzzHeap — for the tests that generate checked-in corpus
// entries: snd has registered Date, then Year4D, which is fuzzSeeds' order, so
// the type IDs of a stream it encodes resolve in the fuzz target too.
func fuzzTarget(t *testing.T) (snd *vm.Runtime, newRT func(name string) *vm.Runtime) {
	t.Helper()
	cp, reg := fuzzPath(), registry.NewRegistry()
	newRT = func(name string) *vm.Runtime {
		rt, err := vm.NewRuntime(cp, vm.Options{Name: name, Registry: registry.InProc{R: reg}, Heap: fuzzHeap()})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	snd = newRT("fuzz-snd")
	snd.MustLoad("Date")
	return snd, newRT
}

// fuzzSeeds encodes real Skyway streams (standard and compact, single and
// multi-root) so mutation starts from wire-valid inputs that reach the deep
// validation layers rather than dying at the magic check.
func fuzzSeeds(f *testing.F, cp *klass.Path, reg *registry.Registry) [][]byte {
	f.Helper()
	snd, err := vm.NewRuntime(cp, vm.Options{Name: "fuzz-snd", Registry: registry.InProc{R: reg}, Heap: fuzzHeap()})
	if err != nil {
		f.Fatal(err)
	}
	sky := New(snd)
	date := func() heap.Addr {
		dk := snd.MustLoad("Date")
		yk := snd.MustLoad("Year4D")
		yo := snd.MustNew(yk)
		snd.SetInt(yo, yk.FieldByName("value"), 2018)
		yp := snd.Pin(yo)
		defer yp.Release()
		do := snd.MustNew(dk)
		snd.SetRef(do, dk.FieldByName("year"), yp.Addr())
		snd.SetInt(do, dk.FieldByName("month"), 3)
		snd.SetInt(do, dk.FieldByName("day"), 24)
		return do
	}

	var seeds [][]byte
	encode := func(opts ...WriterOption) {
		var buf bytes.Buffer
		w := sky.NewWriter(&buf, opts...)
		d := date()
		dh := snd.Pin(d)
		if err := w.WriteObject(dh.Addr()); err != nil {
			f.Fatal(err)
		}
		if err := w.WriteObject(dh.Addr()); err != nil { // shared root → back-reference
			f.Fatal(err)
		}
		dh.Release()
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	encode()
	encode(WithCompactHeaders())
	encode(WithBufferSize(128)) // force multi-segment streaming
	return seeds
}

// FuzzReaderDecode drives arbitrary bytes through the hardened decode path.
// The invariant matches the chaos suite's: every input either decodes or
// fails with a structured *DecodeError — never a panic, never a silent
// wrong answer from a malformed frame.
func FuzzReaderDecode(f *testing.F) {
	cp := fuzzPath()
	reg := registry.NewRegistry()
	for _, seed := range fuzzSeeds(f, cp, reg) {
		f.Add(seed)
	}
	// Handcrafted near-valid frames (more live in testdata/fuzz/).
	hdr := []byte("SKYW\x02\x01\x00\x00")
	f.Add([]byte("SKYJ\x02\x01\x00\x00"))                                // bad magic
	f.Add([]byte("SKYW\x09\x01\x00\x00"))                                // unknown version
	f.Add(append(append([]byte{}, hdr...), 'S', 0xFF, 0xFF, 0xFF, 0xFF)) // absurd segment length
	f.Add(append(append([]byte{}, hdr...), 'M', 0, 0))                   // truncated marks frame
	f.Add(append(append([]byte{}, hdr...), 'Z'))                         // unknown tag
	f.Add(append(append([]byte{}, hdr...), 'M', 0, 0, 0, 1, 3))          // top into no chunks

	f.Fuzz(func(t *testing.T, data []byte) {
		rcv, err := vm.NewRuntime(cp, vm.Options{Name: "fuzz-rcv", Registry: registry.InProc{R: reg}, Heap: fuzzHeap()})
		if err != nil {
			t.Fatal(err)
		}
		rd := NewReader(rcv, bytes.NewReader(data))
		defer rd.Free()
		for {
			_, err := rd.ReadObject()
			if err == io.EOF {
				return
			}
			if err != nil {
				if _, ok := AsDecodeError(err); !ok {
					t.Fatalf("decoder surfaced unstructured error %T: %v", err, err)
				}
				return
			}
		}
	})
}
