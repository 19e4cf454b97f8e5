package batch

import (
	"bytes"
	"testing"

	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/registry"
	"skyway/internal/vm"
)

func fuzzTupleHeap() heap.Config {
	return heap.Config{
		EdenSize:     1 << 20,
		SurvivorSize: 256 << 10,
		OldSize:      4 << 20,
		BufferSize:   1 << 20,
		Layout:       klass.Layout{Baddr: true},
	}
}

// FuzzTupleCodec feeds arbitrary bytes to the schema-driven tuple decoder.
// The format carries no type tags (§5.3), so every byte is trusted to be in
// schema position — the decoder must still never panic or allocate absurdly
// off a corrupt length word; it either materializes a row of the schema
// class or returns an error.
func FuzzTupleCodec(f *testing.F) {
	cp := klass.NewPath()
	TPCHClasses(cp)
	reg := registry.NewRegistry()
	snd, err := vm.NewRuntime(cp, vm.Options{Name: "fuzz-tuple-snd", Registry: registry.InProc{R: reg}, Heap: fuzzTupleHeap()})
	if err != nil {
		f.Fatal(err)
	}
	ck := snd.MustLoad(CustomerClass)
	row := snd.MustNew(ck)
	rh := snd.Pin(row)
	snd.SetInt(rh.Addr(), ck.FieldByName("custkey"), 7)
	snd.SetInt(rh.Addr(), ck.FieldByName("nationkey"), 3)
	name := snd.Pin(snd.MustNewString("Customer#000000007"))
	snd.SetRef(rh.Addr(), ck.FieldByName("name"), name.Addr())
	snd.SetRef(rh.Addr(), ck.FieldByName("mktsegment"), heap.Null)
	snd.SetDouble(rh.Addr(), ck.FieldByName("acctbal"), 9561.95)

	codec := NewTupleCodec(CustomerClass, nil)
	var seed bytes.Buffer
	enc := codec.NewEncoder(snd, &seed)
	if err := enc.Write(rh.Addr()); err != nil {
		f.Fatal(err)
	}
	if err := enc.Write(rh.Addr()); err != nil {
		f.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		f.Fatal(err)
	}
	name.Release()
	rh.Release()
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()/2])    // truncated record
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFE}) // absurd string length in a string slot
	f.Add(bytes.Repeat([]byte{0x41}, 64)) // schema-width garbage

	lazy := NewTupleCodec(CustomerClass, []string{"custkey", "name"})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []*TupleCodec{codec, lazy} {
			rcv, err := vm.NewRuntime(cp, vm.Options{Name: "fuzz-tuple-rcv", Registry: registry.InProc{R: reg}, Heap: fuzzTupleHeap()})
			if err != nil {
				t.Fatal(err)
			}
			dec := c.NewDecoder(rcv, bytes.NewReader(data))
			for {
				a, err := dec.Read()
				if err != nil {
					break // any structured error ends the stream; panics are the bug
				}
				if got := rcv.KlassOf(a); got.Name != CustomerClass {
					t.Fatalf("decoder produced a %s from a %s stream", got.Name, CustomerClass)
				}
			}
		}
	})
}
