package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"skyway/internal/gc"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/vm"
)

// parityArrays are the primitive arrays of the parity graph, one per element
// kind, each filled with parityVals truncated to its width.
var parityArrays = []string{"boolean[]", "byte[]", "short[]", "char[]", "int[]", "float[]", "long[]", "double[]"}

var parityVals = []int64{-1, 0x123456789ABCDEF0, 0x7F}

// parityLong indexes the long[] in parityArrays.
const parityLong = 6

// parityView is the parity graph as one way of reading it hands it out.
type parityView struct {
	name   string
	kinds  heap.Addr   // a Kinds with a field of every kind, r pointing at a second Kinds
	arrays []heap.Addr // parityArrays, in order
	refs   heap.Addr   // a Kinds[]: {kinds, null, the second Kinds}
}

// sendParityGraph builds the parity graph on snd under one Object[] root and
// returns its wire.
func sendParityGraph(t *testing.T, snd *vm.Runtime) []byte {
	t.Helper()
	kk := snd.MustLoad("Kinds")
	pin := func(a heap.Addr) *gc.Handle {
		h := snd.Pin(a)
		t.Cleanup(h.Release)
		return h
	}
	second := pin(snd.MustNew(kk))
	first := pin(snd.MustNew(kk))
	var arrays []*gc.Handle
	for _, name := range parityArrays {
		arrays = append(arrays, pin(snd.MustNewArray(snd.MustLoad(name), len(parityVals))))
	}
	refs := pin(snd.MustNewArray(snd.MustLoad("Kinds[]"), 3))
	root := pin(snd.MustNewArray(snd.MustLoad(vm.ObjectClass+"[]"), 2+len(parityArrays)))

	k, f := first.Addr(), kk.FieldByName
	snd.SetBool(k, f("z"), true)
	snd.SetInt(k, f("b"), -5)
	snd.SetInt(k, f("s"), -300)
	snd.SetInt(k, f("c"), 0xBEEF)
	snd.SetInt(k, f("i"), -70000)
	snd.SetRaw(k, f("f"), uint64(math.Float32bits(1.5)))
	snd.SetLong(k, f("j"), -(1<<40)-3)
	snd.SetDouble(k, f("d"), -2.25)
	snd.SetRef(k, f("r"), second.Addr())
	snd.SetLong(second.Addr(), f("j"), 7)
	snd.ArraySetRef(refs.Addr(), 0, k)
	snd.ArraySetRef(refs.Addr(), 2, second.Addr())
	snd.ArraySetRef(root.Addr(), 0, k)
	for i, h := range arrays {
		for j, v := range parityVals {
			snd.ArraySetLong(h.Addr(), j, v)
		}
		snd.ArraySetRef(root.Addr(), 1+i, h.Addr())
	}
	snd.ArraySetRef(root.Addr(), 1+len(arrays), refs.Addr())

	sky := New(snd)
	sky.ShuffleStart()
	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.WriteObject(root.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// parityProbe is one typed access whose result the three views must agree
// on; a panic is part of the result.
type parityProbe struct {
	name string
	fn   func(v parityView) any
}

func (p parityProbe) run(v parityView) (out string) {
	defer func() {
		if r := recover(); r != nil {
			out = fmt.Sprint("panic: ", r)
		}
	}()
	return fmt.Sprint(p.fn(v))
}

// TestAccessorParity builds one decoded graph — an instance with a field of
// every kind, an array of every element kind and a reference array — and
// reads it three ways: decoded eagerly (managed), through an unpromoted
// arena handle and through a promoted one. Every typed getter and setter must
// agree across the three, on values and on panics: element index -1 and len,
// and ArrayGetChar's truncation of a long[] element. The managed read and
// write paths allocate nothing.
func TestAccessorParity(t *testing.T) {
	cp := klass.NewPath()
	cp.MustDefine(&klass.ClassDef{Name: "Kinds", Fields: []klass.FieldDef{
		{Name: "z", Kind: klass.Bool}, {Name: "b", Kind: klass.Int8}, {Name: "s", Kind: klass.Int16},
		{Name: "c", Kind: klass.Char}, {Name: "i", Kind: klass.Int32}, {Name: "f", Kind: klass.Float32},
		{Name: "j", Kind: klass.Int64}, {Name: "d", Kind: klass.Float64},
		{Name: "r", Kind: klass.Ref, Class: "Kinds"},
	}})
	reg, snd := newSenderFor(t, cp)
	rcv, err := vm.NewRuntime(cp, vm.Options{Name: "parity-rcv", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	wire := sendParityGraph(t, snd)

	field := rcv.MustLoad("Kinds").FieldByName
	read := func(name string, promote bool, opts ...ReaderOption) (parityView, *Reader) {
		rd := NewReader(rcv, bytes.NewReader(wire), opts...)
		t.Cleanup(rd.Free)
		root, err := rd.ReadObject()
		if err != nil {
			t.Fatal(err)
		}
		v := parityView{name: name, kinds: rcv.ArrayGetRef(root, 0), refs: rcv.ArrayGetRef(root, 1+len(parityArrays))}
		for i := range parityArrays {
			v.arrays = append(v.arrays, rcv.ArrayGetRef(root, 1+i))
		}
		if promote {
			for _, a := range append([]heap.Addr{v.kinds, v.refs, rcv.GetRef(v.kinds, field("r"))}, v.arrays...) {
				if _, err := rcv.Promote(a); err != nil {
					t.Fatal(err)
				}
			}
		}
		return v, rd
	}
	managed, _ := read("managed", false)
	handle, ard := read("arena handle", false, WithArena())
	promoted, _ := read("promoted handle", true, WithArena())
	if heap.IsArenaAddr(managed.kinds) || !heap.IsArenaAddr(handle.kinds) || !heap.IsArenaAddr(promoted.kinds) {
		t.Fatal("the views are not one managed object and two handles")
	}
	views := []parityView{managed, handle, promoted}

	describe := func(a heap.Addr) string {
		if a == heap.Null {
			return "null"
		}
		return fmt.Sprintf("%s j=%d", rcv.KlassOf(a).Name, rcv.GetLong(a, field("j")))
	}
	agree := func(probes []parityProbe) {
		t.Helper()
		for _, p := range probes {
			want := p.run(views[0])
			for _, v := range views[1:] {
				if got := p.run(v); got != want {
					t.Errorf("%s: %s reads %s, %s reads %s", p.name, views[0].name, want, v.name, got)
				}
			}
		}
	}

	// Reads.
	var reads []parityProbe
	for _, n := range []string{"z", "b", "s", "c", "i", "f", "j", "d"} {
		f := field(n)
		reads = append(reads,
			parityProbe{"GetRaw " + n, func(v parityView) any { return rcv.GetRaw(v.kinds, f) }},
			parityProbe{"GetLong " + n, func(v parityView) any { return rcv.GetLong(v.kinds, f) }},
			parityProbe{"GetInt " + n, func(v parityView) any { return rcv.GetInt(v.kinds, f) }})
	}
	reads = append(reads,
		parityProbe{"GetBool", func(v parityView) any { return rcv.GetBool(v.kinds, field("z")) }},
		parityProbe{"GetDouble", func(v parityView) any { return rcv.GetDouble(v.kinds, field("d")) }},
		parityProbe{"GetRef", func(v parityView) any { return describe(rcv.GetRef(v.kinds, field("r"))) }},
		parityProbe{"KlassOf", func(v parityView) any { return rcv.KlassOf(v.kinds).Name }},
		parityProbe{"ArrayLen Kinds[]", func(v parityView) any { return rcv.ArrayLen(v.refs) }})
	for j := -1; j <= 3; j++ {
		reads = append(reads, parityProbe{fmt.Sprintf("ArrayGetRef Kinds[] %d", j),
			func(v parityView) any { return describe(rcv.ArrayGetRef(v.refs, j)) }})
	}
	for i, name := range parityArrays {
		reads = append(reads,
			parityProbe{"KlassOf " + name, func(v parityView) any { return rcv.KlassOf(v.arrays[i]).Name }},
			parityProbe{"ArrayLen " + name, func(v parityView) any { return rcv.ArrayLen(v.arrays[i]) }},
			parityProbe{"ArrayLongs " + name, func(v parityView) any { return rcv.ArrayLongs(v.arrays[i], nil) }})
		for j := -1; j <= len(parityVals); j++ {
			reads = append(reads,
				parityProbe{fmt.Sprintf("ArrayGetLong %s %d", name, j),
					func(v parityView) any { return rcv.ArrayGetLong(v.arrays[i], j) }},
				parityProbe{fmt.Sprintf("ArrayGetDouble %s %d", name, j),
					func(v parityView) any { return math.Float64bits(rcv.ArrayGetDouble(v.arrays[i], j)) }},
				parityProbe{fmt.Sprintf("ArrayGetChar %s %d", name, j),
					func(v parityView) any { return rcv.ArrayGetChar(v.arrays[i], j) }})
		}
	}
	agree(reads)
	for _, v := range views {
		if got := rcv.ArrayGetChar(v.arrays[parityLong], 1); got != 0xDEF0 {
			t.Errorf("%s: ArrayGetChar of the long[] element 0x123456789ABCDEF0 = %#x, want its low 16 bits", v.name, got)
		}
		for _, j := range []int{-1, len(parityVals)} {
			p := parityProbe{"", func(v parityView) any { return rcv.ArrayGetLong(v.arrays[parityLong], j) }}
			if got := p.run(v); !strings.HasPrefix(got, "panic: ") {
				t.Errorf("%s: ArrayGetLong of the long[] at %d = %s, want a panic", v.name, j, got)
			}
		}
	}
	if n := ard.ArenaRegion().Promotions(); n != 0 {
		t.Fatalf("reading through the arena handles promoted %d objects", n)
	}

	// Writes, each read back; the first write through a handle promotes it.
	writes := []parityProbe{
		{"SetLong", func(v parityView) any {
			rcv.SetLong(v.kinds, field("j"), 1<<50)
			return rcv.GetLong(v.kinds, field("j"))
		}},
		{"SetInt", func(v parityView) any { rcv.SetInt(v.kinds, field("i"), -9); return rcv.GetInt(v.kinds, field("i")) }},
		{"SetInt truncating", func(v parityView) any { rcv.SetInt(v.kinds, field("b"), 0x1FF); return rcv.GetInt(v.kinds, field("b")) }},
		{"SetInt char", func(v parityView) any { rcv.SetInt(v.kinds, field("c"), -1); return rcv.GetInt(v.kinds, field("c")) }},
		{"SetBool", func(v parityView) any {
			rcv.SetBool(v.kinds, field("z"), false)
			return rcv.GetBool(v.kinds, field("z"))
		}},
		{"SetDouble", func(v parityView) any {
			rcv.SetDouble(v.kinds, field("d"), 3.5)
			return rcv.GetDouble(v.kinds, field("d"))
		}},
		{"SetRaw", func(v parityView) any {
			rcv.SetRaw(v.kinds, field("f"), uint64(math.Float32bits(-0.5)))
			return rcv.GetRaw(v.kinds, field("f"))
		}},
		{"SetRef", func(v parityView) any {
			rcv.SetRef(v.kinds, field("r"), v.kinds)
			return describe(rcv.GetRef(v.kinds, field("r")))
		}},
		{"SetRaw ref", func(v parityView) any {
			rcv.SetRaw(v.kinds, field("r"), 0)
			return describe(rcv.GetRef(v.kinds, field("r")))
		}},
		{"ArraySetRef", func(v parityView) any {
			rcv.ArraySetRef(v.refs, 1, v.kinds)
			return describe(rcv.ArrayGetRef(v.refs, 1))
		}},
		{"ArraySetRef at len", func(v parityView) any { rcv.ArraySetRef(v.refs, 3, v.kinds); return nil }},
	}
	for i, name := range parityArrays {
		writes = append(writes,
			parityProbe{"ArraySetLong " + name, func(v parityView) any {
				rcv.ArraySetLong(v.arrays[i], 0, -2)
				return rcv.ArrayGetLong(v.arrays[i], 0)
			}},
			parityProbe{"ArraySetDouble " + name, func(v parityView) any {
				rcv.ArraySetDouble(v.arrays[i], 1, 2.5)
				return math.Float64bits(rcv.ArrayGetDouble(v.arrays[i], 1))
			}},
			parityProbe{"ArraySetChar " + name, func(v parityView) any {
				rcv.ArraySetChar(v.arrays[i], 2, 0xFFFF)
				return rcv.ArrayGetChar(v.arrays[i], 2)
			}},
			parityProbe{"ArraySetLong at -1 " + name, func(v parityView) any { rcv.ArraySetLong(v.arrays[i], -1, 0); return nil }},
			parityProbe{"ArraySetChar at len " + name, func(v parityView) any { rcv.ArraySetChar(v.arrays[i], len(parityVals), 0); return nil }},
			parityProbe{"ArrayPutLongs " + name, func(v parityView) any {
				rcv.ArrayPutLongs(v.arrays[i], []int64{4, -4, 1 << 33})
				return rcv.ArrayLongs(v.arrays[i], nil)
			}})
	}
	agree(writes)

	// The managed paths allocate nothing.
	k, r, refs, longs := managed.kinds, field("r"), managed.refs, managed.arrays[parityLong]
	dst := make([]int64, len(parityVals))
	if n := testing.AllocsPerRun(50, func() {
		for _, name := range []string{"b", "s", "c", "i", "f", "j"} {
			f := field(name)
			rcv.SetInt(k, f, rcv.GetInt(k, f))
			rcv.SetLong(k, f, rcv.GetLong(k, f))
			rcv.SetRaw(k, f, rcv.GetRaw(k, f))
		}
		rcv.SetBool(k, field("z"), rcv.GetBool(k, field("z")))
		rcv.SetDouble(k, field("d"), rcv.GetDouble(k, field("d")))
		rcv.SetRef(k, r, rcv.GetRef(k, r))
		_ = rcv.KlassOf(k)
		for _, a := range managed.arrays {
			for j, n := 0, rcv.ArrayLen(a); j < n; j++ {
				rcv.ArraySetLong(a, j, rcv.ArrayGetLong(a, j))
				rcv.ArraySetDouble(a, j, rcv.ArrayGetDouble(a, j))
				rcv.ArraySetChar(a, j, rcv.ArrayGetChar(a, j))
			}
		}
		rcv.ArraySetRef(refs, 0, rcv.ArrayGetRef(refs, 0))
		dst = rcv.ArrayLongs(longs, dst)
		rcv.ArrayPutLongs(longs, dst)
	}); n != 0 {
		t.Errorf("the managed read and write paths allocate %v times a pass", n)
	}
}
