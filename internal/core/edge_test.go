package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/registry"
	"skyway/internal/vm"
)

// testClusterPath returns the shared classpath used by testCluster.
func testClusterPath() *klass.Path {
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
	)
	return cp
}

// newSenderFor boots a sender runtime on cp with a fresh registry, returning
// the registry client (for further runtimes) and the sender.
func newSenderFor(t *testing.T, cp *klass.Path) (registry.Client, *vm.Runtime) {
	t.Helper()
	reg := registry.InProc{R: registry.NewRegistry()}
	snd, err := vm.NewRuntime(cp, vm.Options{Name: "edge-snd", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return reg, snd
}

// Edge-case coverage for the transfer core beyond the happy paths in
// core_test.go.

func TestEmptyStream(t *testing.T) {
	_, rcv, sky := testCluster(t)
	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(rcv, &buf).ReadObject(); err != io.EOF {
		t.Errorf("empty stream read = %v, want EOF", err)
	}
}

func TestDoubleCloseIsIdempotent(t *testing.T) {
	_, _, sky := testCluster(t)
	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Error("second Close wrote more bytes")
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	snd, _, sky := testCluster(t)
	d := newDate(t, snd, 2020, 1, 1)
	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	w.Close()
	if err := w.WriteObject(d); err == nil {
		t.Error("write after close succeeded")
	}
}

func TestTruncatedStreamErrors(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	d := newDate(t, snd, 2020, 2, 2)
	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.WriteObject(d); err != nil {
		t.Fatal(err)
	}
	w.Close()
	full := buf.Bytes()

	// Any strict prefix must produce an error (or EOF for the empty
	// prefix), never a bogus object.
	for cut := 1; cut < len(full)-1; cut += 7 {
		r := NewReader(rcv, bytes.NewReader(full[:cut]))
		if _, err := r.ReadObject(); err == nil {
			t.Fatalf("truncation at %d bytes read an object", cut)
		}
	}
}

func TestGarbageMagicRejected(t *testing.T) {
	_, rcv, _ := testCluster(t)
	r := NewReader(rcv, bytes.NewReader([]byte("NOTSKYWAYDATA___")))
	if _, err := r.ReadObject(); err == nil {
		t.Error("garbage stream accepted")
	}
}

func TestOversizedObjectGetsOwnSegment(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	// A primitive array far larger than the writer buffer.
	ak := snd.MustLoad("double[]")
	arr := snd.MustNewArray(ak, 4096) // 32 KiB payload
	for i := 0; i < 4096; i++ {
		snd.ArraySetDouble(arr, i, float64(i))
	}
	var buf bytes.Buffer
	w := sky.NewWriter(&buf, WithBufferSize(1024))
	if err := w.WriteObject(arr); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err := NewReader(rcv, &buf).ReadObject()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i += 257 {
		if rcv.ArrayGetDouble(got, i) != float64(i) {
			t.Fatalf("elem %d corrupted", i)
		}
	}
}

func TestPhaseWraparoundClearsBaddrs(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	d := newDate(t, snd, 1990, 6, 6)
	dp := snd.Pin(d)
	defer dp.Release()

	// Drive the 8-bit phase counter all the way around.
	for i := 0; i < 300; i++ {
		sky.ShuffleStart()
	}
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
	dk := rcv.MustLoad("Date")
	if rcv.GetInt(got, dk.FieldByName("month")) != 6 {
		t.Error("transfer after wraparound corrupted")
	}
}

func TestManyWritersSixteenBitStreamIDs(t *testing.T) {
	// The baddr stream field is 16 bits; writer IDs wrap. Two writers whose
	// IDs collide after a wrap are in different phases (the runtime refuses
	// a 65 537th stream within one, TestStreamIDsExhaustedWithinPhase) —
	// here we verify allocation keeps working far past 2^16.
	snd, _, sky := testCluster(t)
	d := newDate(t, snd, 2001, 1, 1)
	dp := snd.Pin(d)
	defer dp.Release()
	for i := 0; i < 70000; i += 7001 {
		// Sample a few IDs across the range cheaply.
		for j := 0; j < 7001; j++ {
			_ = sky.NewWriter(io.Discard)
		}
		sky.ShuffleStart() // new phase invalidates prior claims
		w := sky.NewWriter(io.Discard)
		if err := w.WriteObject(dp.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Within one phase the 16-bit stream field can tell 65 536 streams apart.
// The next one would alias the first's baddr claims and emit bare back
// references for objects it never copied, so it must fail instead — and a
// phase bump hands the full space out again.
func TestStreamIDsExhaustedWithinPhase(t *testing.T) {
	snd, _, sky := testCluster(t)
	dp := snd.Pin(newDate(t, snd, 2001, 1, 1))
	defer dp.Release()
	write := func() error {
		w := sky.NewWriter(io.Discard)
		defer w.Close()
		return w.WriteObject(dp.Addr())
	}
	if err := write(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < vm.StreamsPerPhase; i++ {
		sky.NewWriter(io.Discard).Close()
	}
	err := write()
	var ex *vm.StreamIDsExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("stream %d of one phase: err = %v, want a StreamIDsExhaustedError", vm.StreamsPerPhase+1, err)
	}
	if ex.Phase != sky.Phase() || !strings.Contains(err.Error(), "65536") {
		t.Errorf("error %q does not name phase %d and the 65536 limit", err, sky.Phase())
	}
	sky.ShuffleStart()
	if err := write(); err != nil {
		t.Errorf("first stream of the next phase: %v", err)
	}
}

// Any number of services may be opened over one runtime: they are views of
// the runtime's phase and stream IDs, so two writers from two views never
// hold the same (phase, stream) pair, and each copies a shared root in full.
func TestTwoViewsOfOneRuntimeShareStreamIDs(t *testing.T) {
	snd, rcv, a := testCluster(t)
	b := New(snd)
	dp := snd.Pin(newDate(t, snd, 1990, 6, 7))
	defer dp.Release()

	rdk, ryk := rcv.MustLoad("Date"), rcv.MustLoad("Year4D")
	for _, sky := range []*Skyway{a, b} {
		var buf bytes.Buffer
		w := sky.NewWriter(&buf)
		if err := w.WriteObject(dp.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := NewReader(rcv, &buf).ReadObject()
		if err != nil {
			t.Fatalf("stream %d: %v", w.streamID, err)
		}
		year := rcv.GetInt(rcv.GetRef(got, rdk.FieldByName("year")), ryk.FieldByName("value"))
		month, day := rcv.GetInt(got, rdk.FieldByName("month")), rcv.GetInt(got, rdk.FieldByName("day"))
		if year != 1990 || month != 6 || day != 7 {
			t.Errorf("stream %d decoded %d-%d-%d, want 1990-6-7", w.streamID, year, month, day)
		}
	}
	if a.Phase() != b.Phase() || a.Snapshot() != b.Snapshot() {
		t.Error("two views of one runtime disagree on its phase or statistics")
	}
}

func TestStatsAcrossReceive(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	d := newDate(t, snd, 2010, 10, 10)
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
	if r.Objects != w.Objects {
		t.Errorf("reader saw %d objects, writer sent %d", r.Objects, w.Objects)
	}
	if r.Bytes == 0 || uint64(r.Bytes) != w.Bytes {
		t.Errorf("reader bytes %d, writer bytes %d", r.Bytes, w.Bytes)
	}
}

func TestBufferSpaceExhaustion(t *testing.T) {
	// A receiver with a tiny buffer space reports a helpful error rather
	// than corrupting state.
	cp := testClusterPath()
	reg, snd := newSenderFor(t, cp)
	rcvCfg := heap.DefaultConfig()
	rcvCfg.BufferSize = 4 << 10
	rcv, err := vm.NewRuntime(cp, vm.Options{Name: "tiny-rcv", Heap: rcvCfg, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	sky := New(snd)

	// Send more than 4 KiB of cells.
	ck := snd.MustLoad("Cell")
	head := snd.MustNew(ck)
	hp := snd.Pin(head)
	prev := snd.Pin(head)
	for i := 0; i < 500; i++ {
		c := snd.MustNew(ck)
		snd.SetRef(prev.Addr(), ck.FieldByName("next"), c)
		prev.Set(c)
	}
	prev.Release()
	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.WriteObject(hp.Addr()); err != nil {
		t.Fatal(err)
	}
	w.Close()
	hp.Release()

	if _, err := NewReader(rcv, &buf).ReadObject(); err == nil {
		t.Error("buffer-space exhaustion not reported")
	}
}

func TestBufferSpaceRecycledAcrossTransfers(t *testing.T) {
	// Repeated transfer + Free must run indefinitely inside a bounded
	// buffer space: freed chunks are reused (§3.2 explicit-free API).
	cp := testClusterPath()
	reg, snd := newSenderFor(t, cp)
	rcvCfg := heap.DefaultConfig()
	rcvCfg.BufferSize = 64 << 10
	rcv, err := vm.NewRuntime(cp, vm.Options{Name: "recycle-rcv", Heap: rcvCfg, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	sky := New(snd)
	d := newDate(t, snd, 2024, 1, 1)
	dp := snd.Pin(d)
	defer dp.Release()

	// Each round sends ~20 KiB; 100 rounds = ~2 MiB through a 64 KiB space.
	ck := snd.MustLoad("Cell")
	head := snd.MustNew(ck)
	hp := snd.Pin(head)
	prev := snd.Pin(head)
	for i := 0; i < 500; i++ {
		c := snd.MustNew(ck)
		snd.SetRef(prev.Addr(), ck.FieldByName("next"), c)
		prev.Set(c)
	}
	prev.Release()
	defer hp.Release()

	for round := 0; round < 100; round++ {
		sky.ShuffleStart()
		var buf bytes.Buffer
		w := sky.NewWriter(&buf)
		if err := w.WriteObject(hp.Addr()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		w.Close()
		r := NewReader(rcv, &buf)
		if _, err := r.ReadObject(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		r.Free()
	}
}

// slabTail is the image of everything from base to the end of h's slab: the
// most room a chunk at base could ever offer an object.
func slabTail(h *heap.Heap, base heap.Addr) []byte {
	return h.ByteView(base, uint32(h.TotalBytes()-uint64(base)))
}

// TestHugeArrayLengthRejected pins the full-width extent in the segment
// walker: Pad(Size + n*ElemSize) computed in uint32 turns a wire-supplied
// ref-array length of 2^29 (8-byte elements) into a tiny size that passes
// the per-object overrun check while refCount=n would drive slot reads and
// absolutization writes far past the chunk. The wire format permits 1 GiB
// segments, so rather than stream a gigabyte through the reader, the test
// lists a chunk whose image is all of buffer space from a small real
// allocation to the end of the slab.
func TestHugeArrayLengthRejected(t *testing.T) {
	_, rcv, _ := testCluster(t)
	h := rcv.Heap
	ak := rcv.MustLoad("Date[]")

	base := h.AllocBuffer(4096)
	if base == heap.Null {
		t.Fatal("AllocBuffer failed")
	}
	// A staged wire image's klass word holds the global type ID.
	h.SetKlassWord(base, uint64(uint32(ak.TID)))
	h.SetArrayLen(base, 1<<29)

	rd := NewReader(rcv, bytes.NewReader(nil))
	rd.chunks = append(rd.chunks, chunk{startRel: relBias, base: base, img: slabTail(h, base)})
	err := rd.walk()
	de, ok := AsDecodeError(err)
	if !ok {
		t.Fatalf("walk = %v, want DecodeError", err)
	}
	if de.Kind != DecodeLength {
		t.Errorf("DecodeError kind = %s, want %s", de.Kind, DecodeLength)
	}
}

// TestCompactHugeArrayLengthRejected pins the same uint32 wrap on the compact
// decode path: a compact record can declare a 2^29-element ref array in a few
// bytes of varint, and the wrapped size would both pass the overrun check and
// plant an oversized array-length header for absolutize to trip over. The
// record must be rejected before any byte of it reaches the chunk.
func TestCompactHugeArrayLengthRejected(t *testing.T) {
	_, rcv, _ := testCluster(t)
	h := rcv.Heap
	ak := rcv.MustLoad("Date[]")

	base := h.AllocBuffer(4096)
	if base == heap.Null {
		t.Fatal("AllocBuffer failed")
	}
	var tmp [binary.MaxVarintLen64]byte
	var phys []byte
	phys = append(phys, tmp[:binary.PutUvarint(tmp[:], uint64(uint32(ak.TID)))]...)
	phys = append(phys, compactFlagArray)
	phys = append(phys, tmp[:binary.PutUvarint(tmp[:], 1<<29)]...)

	// The wire payload stands at the tail of the chunk, as fill leaves it.
	img := slabTail(h, base)
	copy(img[len(img)-len(phys):], phys)
	rd := NewReader(rcv, bytes.NewReader(nil))
	err := rd.inflate(img, uint32(len(phys)))
	de, ok := AsDecodeError(err)
	if !ok {
		t.Fatalf("inflate = %v, want DecodeError", err)
	}
	if de.Kind != DecodeLength {
		t.Errorf("DecodeError kind = %s, want %s", de.Kind, DecodeLength)
	}
	// Rejection must precede the first mutation of the chunk.
	if h.KlassWord(base) != 0 || h.ArrayLen(base) != 0 {
		t.Error("rejected compact record was partially inflated into the chunk")
	}
}

func TestHashMapTransferStaysValid(t *testing.T) {
	// The §1 headline: a transferred hash structure's layout is immediately
	// valid because the key hashcodes ride in the mark words.
	snd, rcv, sky := testCluster(t)
	m, err := snd.NewHashMap(16)
	if err != nil {
		t.Fatal(err)
	}
	mp := snd.Pin(m)
	defer mp.Release()
	for i := 0; i < 40; i++ {
		kh := snd.Pin(snd.MustNewString("key"))
		vh := snd.Pin(snd.MustNewString("value"))
		if err := snd.HashMapPut(mp.Addr(), kh.Addr(), vh.Addr()); err != nil {
			t.Fatal(err)
		}
		kh.Release()
		vh.Release()
	}

	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.WriteObject(mp.Addr()); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err := NewReader(rcv, &buf).ReadObject()
	if err != nil {
		t.Fatal(err)
	}
	if rcv.HashMapLen(got) != 40 {
		t.Fatalf("received map has %d entries", rcv.HashMapLen(got))
	}
	// Every received key must be found through the received table without
	// any rehash.
	n := 0
	rcv.HashMapEach(got, func(k, v heap.Addr) {
		if found, ok := rcv.HashMapGet(got, k); !ok || found != v {
			t.Fatal("received key not found via hash lookup")
		}
		n++
	})
	if n != 40 {
		t.Fatalf("iterated %d entries", n)
	}
	if !rcv.HashMapValid(got) {
		t.Error("received map needs a rehash")
	}
}
