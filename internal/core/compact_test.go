package core

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/registry"
	"skyway/internal/vm"
)

// Tests for the compact wire mode (§5.2 future work): the logical transfer
// must be indistinguishable from the standard mode while the wire carries
// fewer bytes.

func compactTransfer(t *testing.T, snd, rcv *vm.Runtime, sky *Skyway, roots ...heap.Addr) []heap.Addr {
	t.Helper()
	var buf bytes.Buffer
	w := sky.NewWriter(&buf, WithCompactHeaders(), WithBufferSize(512))
	for _, r := range roots {
		if err := w.WriteObject(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(rcv, &buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestCompactRoundTripSimple(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	d := newDate(t, snd, 2018, 3, 24)
	got := compactTransfer(t, snd, rcv, sky, d)
	dk := rcv.MustLoad("Date")
	yk := rcv.MustLoad("Year4D")
	if rcv.GetInt(got[0], dk.FieldByName("month")) != 3 {
		t.Error("field corrupted")
	}
	yo := rcv.GetRef(got[0], dk.FieldByName("year"))
	if rcv.GetInt(yo, yk.FieldByName("value")) != 2018 {
		t.Error("reference corrupted")
	}
}

func TestCompactPreservesHashcode(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	d := newDate(t, snd, 2020, 7, 7)
	want := snd.HashCode(d)
	got := compactTransfer(t, snd, rcv, sky, d)
	if h, ok := rcv.Heap.HashOf(got[0]); !ok || h != want {
		t.Errorf("hash = %#x,%v want %#x", h, ok, want)
	}
}

func TestCompactUnhashedStaysUnhashed(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	// Never call HashCode on the sender: the receiver copy must arrive
	// without a cached hash (and without the bytes to carry one).
	d := newDate(t, snd, 2021, 8, 8)
	got := compactTransfer(t, snd, rcv, sky, d)
	if _, ok := rcv.Heap.HashOf(got[0]); ok {
		t.Error("unhashed object arrived hashed")
	}
}

func TestCompactSharedAndCycles(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	ck := snd.MustLoad("Cell")
	pk := snd.MustLoad("Pair")
	a := snd.MustNew(ck)
	ap := snd.Pin(a)
	b := snd.MustNew(ck)
	a = ap.Addr()
	snd.SetRef(a, ck.FieldByName("next"), b)
	snd.SetRef(b, ck.FieldByName("next"), a) // cycle
	p := snd.MustNew(pk)
	a = ap.Addr()
	ap.Release()
	snd.SetRef(p, pk.FieldByName("a"), a)
	snd.SetRef(p, pk.FieldByName("b"), a) // shared

	got := compactTransfer(t, snd, rcv, sky, p)
	rpk := rcv.MustLoad("Pair")
	rck := rcv.MustLoad("Cell")
	ga := rcv.GetRef(got[0], rpk.FieldByName("a"))
	gb := rcv.GetRef(got[0], rpk.FieldByName("b"))
	if ga != gb {
		t.Error("shared object duplicated")
	}
	g2 := rcv.GetRef(ga, rck.FieldByName("next"))
	if rcv.GetRef(g2, rck.FieldByName("next")) != ga {
		t.Error("cycle broken")
	}
}

func TestCompactArraysAndStrings(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	ak := snd.MustLoad(vm.StringClass + "[]")
	arr := snd.MustNewArray(ak, 3)
	arrPin := snd.Pin(arr)
	for i, s := range []string{"alpha", "βeta", ""} {
		so := snd.MustNewString(s)
		snd.ArraySetRef(arrPin.Addr(), i, so)
	}
	got := compactTransfer(t, snd, rcv, sky, arrPin.Addr())
	arrPin.Release()
	want := []string{"alpha", "βeta", ""}
	for i := range want {
		if s := rcv.GoString(rcv.ArrayGetRef(got[0], i)); s != want[i] {
			t.Errorf("elem %d = %q", i, s)
		}
	}

	dk := snd.MustLoad("double[]")
	da := snd.MustNewArray(dk, 100)
	for i := 0; i < 100; i++ {
		snd.ArraySetDouble(da, i, float64(i)*1.5)
	}
	got = compactTransfer(t, snd, rcv, sky, da)
	for i := 0; i < 100; i++ {
		if rcv.ArrayGetDouble(got[0], i) != float64(i)*1.5 {
			t.Fatalf("double elem %d corrupted", i)
		}
	}
}

func TestCompactSavesBytes(t *testing.T) {
	buildChain := func(rt *vm.Runtime, sky *Skyway) heap.Addr {
		ck := rt.MustLoad("Cell")
		head := rt.MustNew(ck)
		hp := rt.Pin(head)
		prev := rt.Pin(head)
		for i := 1; i < 500; i++ {
			c := rt.MustNew(ck)
			rt.SetDouble(c, ck.FieldByName("v"), float64(i))
			rt.SetRef(prev.Addr(), ck.FieldByName("next"), c)
			prev.Set(c)
		}
		prev.Release()
		defer hp.Release()
		return hp.Addr()
	}

	snd, rcv, sky := testCluster(t)
	head := buildChain(snd, sky)
	hp := snd.Pin(head)
	defer hp.Release()

	var std bytes.Buffer
	w := sky.NewWriter(&std)
	if err := w.WriteObject(hp.Addr()); err != nil {
		t.Fatal(err)
	}
	w.Close()

	sky.ShuffleStart()
	var comp bytes.Buffer
	w = sky.NewWriter(&comp, WithCompactHeaders())
	if err := w.WriteObject(hp.Addr()); err != nil {
		t.Fatal(err)
	}
	w.Close()

	if comp.Len() >= std.Len() {
		t.Errorf("compact stream (%d B) not smaller than standard (%d B)", comp.Len(), std.Len())
	}
	// Cells are 40 B with a 24 B header; compact should roughly halve.
	if float64(comp.Len()) > 0.75*float64(std.Len()) {
		t.Errorf("compact stream only %d B vs %d B standard — less than 25%% savings", comp.Len(), std.Len())
	}
	// And it still decodes identically.
	got, err := NewReader(rcv, &comp).ReadObject()
	if err != nil {
		t.Fatal(err)
	}
	rck := rcv.MustLoad("Cell")
	n := 0
	for cur := got; cur != heap.Null; cur = rcv.GetRef(cur, rck.FieldByName("next")) {
		n++
	}
	if n != 500 {
		t.Errorf("decoded chain length %d", n)
	}
}

func TestCompactTruncationRejected(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	d := newDate(t, snd, 2022, 2, 22)
	var buf bytes.Buffer
	w := sky.NewWriter(&buf, WithCompactHeaders())
	if err := w.WriteObject(d); err != nil {
		t.Fatal(err)
	}
	w.Close()
	full := buf.Bytes()
	for cut := 1; cut < len(full)-1; cut += 5 {
		if _, err := NewReader(rcv, bytes.NewReader(full[:cut])).ReadObject(); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
}

// A compact segment inflates forward in place, over the payload fill left at
// the tail of its chunk, so a record's image has to end where its wire bytes
// end, or before. No writer breaks that: a record's run header, hash and
// array length take fewer bytes than the header words they stand for. On a
// heap without the baddr word, though, an array's header is three words, and
// a hashed array record whose type ID and length are overlong uvarints takes
// 25 wire bytes against its 24. Behind a record with room to spare the
// frame's lengths check out; inflating the first record would overwrite the
// first byte of the second before it was read, so the segment is refused.
func TestCompactInflationNeverOverwritesUnreadBytes(t *testing.T) {
	cfg := heap.DefaultConfig()
	cfg.Layout = klass.Layout{}
	rcv, err := vm.NewRuntime(testClusterPath(), vm.Options{Name: "vanilla", Heap: cfg, Registry: registry.InProc{R: registry.NewRegistry()}})
	if err != nil {
		t.Fatal(err)
	}
	tid := uint64(uint32(rcv.MustLoad("long[]").TID))
	if tid >= 0x80 {
		t.Fatalf("long[] has type ID %d; the records below are written for one below 128", tid)
	}
	// overlong writes v < 128 as a ten-byte uvarint.
	overlong := func(v uint64) []byte {
		b := bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64-1)
		b[0] |= byte(v)
		return append(b, 0)
	}
	// Two long[1] records, each a run of one: an unhashed 7, and a hashed 9
	// whose type ID and length take the bytes given. Each image is 32 bytes.
	segment := func(tidBytes, lenBytes []byte) []byte {
		p := append(binary.AppendUvarint(nil, tid), compactFlagArray, 1, 7, 0, 0, 0, 0, 0, 0, 0)
		p = append(append(p, tidBytes...), compactFlagArray|compactFlagHashed)
		p = binary.LittleEndian.AppendUint32(p, 0x5EED)
		p = append(append(p, lenBytes...), 9, 0, 0, 0, 0, 0, 0, 0)
		wire := append([]byte("SKYW\x02\x02\x00\x00"), runsFrame(p, 64)...)
		return append(append(wire, marksFrame(1, 9)...), frameEnd)
	}
	for _, opts := range [][]ReaderOption{nil, {WithArena()}} {
		rd := NewReader(rcv, bytes.NewReader(segment(binary.AppendUvarint(nil, tid), []byte{1})), opts...)
		got, err := rd.ReadAll()
		if err != nil || len(got) != 2 {
			t.Fatalf("arena=%v: decoded %d of 2 roots: %v", opts != nil, len(got), err)
		}
		if a, b := rcv.ArrayGetLong(got[0], 0), rcv.ArrayGetLong(got[1], 0); a != 7 || b != 9 {
			t.Errorf("arena=%v: roots hold %d and %d, want 7 and 9", opts != nil, a, b)
		}
		rd.Free()

		rd = NewReader(rcv, bytes.NewReader(segment(overlong(tid), overlong(1))), opts...)
		_, err = rd.ReadObject()
		if de, ok := AsDecodeError(err); !ok || de.Kind != DecodeLength || !strings.Contains(de.Detail, "unread") {
			t.Errorf("arena=%v: overlong record: %v, want a length error naming the unread bytes", opts != nil, err)
		}
		rd.Free()
	}
	if used := rcv.Heap.BufferUsed(); used != 0 {
		t.Errorf("%d bytes of buffer space still in use", used)
	}
}

func TestCompactWithFieldUpdates(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	if err := rcv.RegisterUpdate("Date", "day", func(rt *vm.Runtime, obj heap.Addr) uint64 { return 1 }); err != nil {
		t.Fatal(err)
	}
	d := newDate(t, snd, 2019, 9, 19)
	got := compactTransfer(t, snd, rcv, sky, d)
	dk := rcv.MustLoad("Date")
	if rcv.GetInt(got[0], dk.FieldByName("day")) != 1 {
		t.Error("field update skipped in compact mode")
	}
}
