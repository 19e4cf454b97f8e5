package core

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/race"
	"skyway/internal/verify"
	"skyway/internal/vm"
)

// --- kind-size validation (the silent-truncation bugfix) ---------------------

// Storing a field whose kind has no size of 1/2/4/8 used to silently no-op,
// leaving zero bytes where the field's value should be — corruption without
// a diagnostic. The shared store routine panics (an undefined-size kind in a
// loaded class is a programming error on the encode side) and such a class
// never enters the runtime's type ID table, so a stream naming it is a type
// error before any field is read (internal/vm,
// TestCheckKlassKindsRejectsUndefinedSizes).
func TestStoreUndefinedKindSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("StoreBytes silently accepted a kind of undefined size")
		}
	}()
	var b [8]byte
	heap.StoreBytes(b[:], 0, klass.Invalid, 0x1234)
}

// --- steady-state allocation discipline --------------------------------------

// allocCorpus pins a few long[] arrays on rt — enough payload for the writer
// to flush many segments per pass — and returns their addresses. Handles are
// released via t.Cleanup.
func allocCorpus(t *testing.T, rt *vm.Runtime, arrays, elems int) []heap.Addr {
	t.Helper()
	k := rt.MustLoad("long[]")
	roots := make([]heap.Addr, 0, arrays)
	for i := 0; i < arrays; i++ {
		a := rt.MustNewArray(k, elems)
		for j := 0; j < elems; j += 31 {
			rt.ArraySetLong(a, j, int64(i+j))
		}
		h := rt.Pin(a)
		t.Cleanup(h.Release)
		roots = append(roots, h.Addr())
	}
	return roots
}

func skipIfInstrumented(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("allocation benchmark skipped in -short mode")
	}
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	if verify.Enabled() {
		t.Skip("the heap verifier allocates during its walks")
	}
}

// TestEncodeSteadyStateAllocs pins the writer's hot-path memory discipline:
// after warmup, encoding a multi-segment corpus must not allocate per
// segment — the output buffer and compact scratch recycle through the
// process-wide pool, and primitive arrays bulk-copy without staging. The
// budget covers only per-pass fixed costs (the Writer itself, its maps).
func TestEncodeSteadyStateAllocs(t *testing.T) {
	skipIfInstrumented(t)
	snd, _, sky := testCluster(t)
	roots := allocCorpus(t, snd, 8, 64<<10) // 4 MiB payload, ~16 segments/pass

	var buf bytes.Buffer
	pass := func() {
		sky.ShuffleStart()
		buf.Reset()
		w := sky.NewWriter(&buf)
		for _, a := range roots {
			if err := w.WriteObject(a); err != nil {
				panic(err)
			}
		}
		if err := w.Close(); err != nil {
			panic(err)
		}
	}
	pass() // warm the pools and learn the corpus size
	corpus := buf.Len()

	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pass()
		}
	})
	const budget = 128 << 10
	if bpo := res.AllocedBytesPerOp(); bpo > budget {
		t.Errorf("encode pass over a %d-byte corpus allocates %d bytes/op, budget %d (segment buffers must recycle)",
			corpus, bpo, budget)
	}
}

// TestDecodeSteadyStateAllocs is the decode-side counterpart: wire segments
// land directly in the pinned chunk (no staging copy), so a pass allocates
// only the Reader's fixed state plus one small pin bookkeeping record per
// chunk — never segment-sized buffers.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	skipIfInstrumented(t)
	snd, rcv, sky := testCluster(t)
	roots := allocCorpus(t, snd, 8, 64<<10)

	var buf bytes.Buffer
	sky.ShuffleStart()
	w := sky.NewWriter(&buf)
	for _, a := range roots {
		if err := w.WriteObject(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), buf.Bytes()...)

	pass := func() {
		r := NewReader(rcv, bytes.NewReader(wire))
		for {
			if _, err := r.ReadObject(); err != nil {
				if err == io.EOF {
					break
				}
				panic(err)
			}
		}
		r.Free()
	}
	pass() // warm the pools

	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pass()
		}
	})
	const budget = 128 << 10
	if bpo := res.AllocedBytesPerOp(); bpo > budget {
		t.Errorf("decode pass over a %d-byte corpus allocates %d bytes/op, budget %d (wire bytes must land in place)",
			len(wire), bpo, budget)
	}
}

// TestArenaDecodeSteadyStateAllocs is the lazy-path counterpart: received
// segments stage into anonymous mappings outside both the managed heap and
// the Go heap, so an arena decode pass must allocate (a) zero managed-heap
// bytes — no pinned chunks, no young objects, no collections — and (b) only
// the Reader's fixed Go-side state, never segment-sized buffers.
func TestArenaDecodeSteadyStateAllocs(t *testing.T) {
	skipIfInstrumented(t)
	snd, rcv, sky := testCluster(t)
	roots := allocCorpus(t, snd, 8, 64<<10)

	var buf bytes.Buffer
	sky.ShuffleStart()
	w := sky.NewWriter(&buf)
	for _, a := range roots {
		if err := w.WriteObject(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), buf.Bytes()...)

	pass := func() {
		r := NewReader(rcv, bytes.NewReader(wire), WithArena())
		for {
			if _, err := r.ReadObject(); err != nil {
				if err == io.EOF {
					break
				}
				panic(err)
			}
		}
		r.Free()
	}
	pass() // warm the pools

	before := rcv.GC.Stats()
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pass()
		}
	})
	after := rcv.GC.Stats()

	if used := rcv.Heap.BufferUsed(); used != 0 {
		t.Errorf("arena decode left %d bytes of pinned buffer space in use; segments must stage off-heap", used)
	}
	if after.Scavenges != before.Scavenges || after.FullGCs != before.FullGCs {
		t.Errorf("arena decode triggered collections (scavenges %d→%d, full GCs %d→%d); the managed heap must stay untouched",
			before.Scavenges, after.Scavenges, before.FullGCs, after.FullGCs)
	}
	const budget = 128 << 10
	if bpo := res.AllocedBytesPerOp(); bpo > budget {
		t.Errorf("arena decode pass over a %d-byte corpus allocates %d bytes/op, budget %d (segments must land in the region mapping)",
			len(wire), bpo, budget)
	}
}

// --- per-root allocation gates -------------------------------------------------

// recordCorpus pins n small root graphs on rt in the shape of a shuffle's
// records: two in three are ref-free Year4D instances, the third a Date
// pointing at one of a few shared Year4Ds, so back-references occur.
func recordCorpus(t testing.TB, rt *vm.Runtime, n int) []heap.Addr {
	t.Helper()
	yk := rt.MustLoad("Year4D")
	var shared [16]heap.Addr
	for i := range shared {
		y := rt.MustNew(yk)
		rt.SetInt(y, yk.FieldByName("value"), int64(1990+i))
		h := rt.Pin(y)
		t.Cleanup(h.Release)
		shared[i] = h.Addr()
	}
	dk := rt.MustLoad("Date")
	roots := make([]heap.Addr, 0, n)
	for i := 0; i < n; i++ {
		var o heap.Addr
		if i%3 == 2 {
			o = rt.MustNew(dk)
			rt.SetRef(o, dk.FieldByName("year"), shared[i%len(shared)])
			rt.SetInt(o, dk.FieldByName("day"), int64(i%28))
		} else {
			o = rt.MustNew(yk)
			rt.SetInt(o, yk.FieldByName("value"), int64(i))
		}
		h := rt.Pin(o)
		t.Cleanup(h.Release)
		roots = append(roots, h.Addr())
	}
	return roots
}

// encodeRecords writes roots as one stream in a fresh shuffle phase.
func encodeRecords(t testing.TB, sky *Skyway, roots []heap.Addr, dst io.Writer, opts ...WriterOption) {
	t.Helper()
	sky.ShuffleStart()
	w := sky.NewWriter(dst, opts...)
	for _, a := range roots {
		if err := w.WriteObject(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// allocsPerRoot reports how many Go allocations a whole stream of n roots
// costs beyond a stream of n/2: the per-stream fixed cost (the Writer or
// Reader, its tables, their growth) cancels, what is left is per root.
func allocsPerRoot(n int, pass func(roots int)) float64 {
	full := testing.AllocsPerRun(5, func() { pass(n) })
	half := testing.AllocsPerRun(5, func() { pass(n / 2) })
	return (full - half) / float64(n-n/2)
}

// TestRecordEncodeAllocsPerRoot: the sender's per-root path — claim, clone,
// header patch, queued top mark — allocates nothing.
func TestRecordEncodeAllocsPerRoot(t *testing.T) {
	skipIfInstrumented(t)
	snd, _, sky := testCluster(t)
	const n = 20000
	roots := recordCorpus(t, snd, n)
	var buf bytes.Buffer
	pass := func(k int) {
		buf.Reset()
		encodeRecords(t, sky, roots[:k], &buf)
	}
	pass(n) // warm the pools and size buf
	if got := allocsPerRoot(n, pass); got > 0.001 {
		t.Errorf("record encode allocates %.4f times per root, want 0", got)
	}
}

// TestRecordDecodeAllocsPerRoot: the receiver's per-root path — top-mark
// parse, walker, root translation — allocates nothing, eager or arena. (The
// top mark's read buffer used to escape: one 8-byte allocation per root.)
func TestRecordDecodeAllocsPerRoot(t *testing.T) {
	skipIfInstrumented(t)
	snd, rcv, sky := testCluster(t)
	const n = 20000
	roots := recordCorpus(t, snd, n)
	var full, half bytes.Buffer
	encodeRecords(t, sky, roots, &full)
	encodeRecords(t, sky, roots[:n/2], &half)

	for _, mode := range []struct {
		name string
		opts []ReaderOption
	}{{"eager", nil}, {"arena", []ReaderOption{WithArena()}}} {
		t.Run(mode.name, func(t *testing.T) {
			pass := func(k int) {
				wire := full.Bytes()
				if k != n {
					wire = half.Bytes()
				}
				r := NewReader(rcv, bytes.NewReader(wire), mode.opts...)
				got, err := r.ReadAll()
				if err != nil || len(got) != k {
					t.Fatalf("decoded %d of %d roots: %v", len(got), k, err)
				}
				r.Free()
			}
			pass(n) // warm the pools
			// ReadAll's result slice grows by doubling; its handful of
			// reallocations is the whole tolerance.
			if got := allocsPerRoot(n, pass); got > 0.001 {
				t.Errorf("record decode allocates %.4f times per root, want 0", got)
			}
		})
	}
}

// TestStreamOpenCloseAllocs: opening, draining and freeing a one-root stream
// costs the Reader, its chunk table and the chunk's pin record. The read
// buffer comes from a pool when the source is not a *bufio.Reader (a fresh
// one was 16 KiB to allocate and zero, for every stream), and the stream
// header, the segment header and the 'M' length word are read into the
// Reader's own scratch.
func TestStreamOpenCloseAllocs(t *testing.T) {
	skipIfInstrumented(t)
	snd, rcv, sky := testCluster(t)
	var wire bytes.Buffer
	encodeRecords(t, sky, []heap.Addr{newDate(t, snd, 2018, 3, 24)}, &wire)
	src := bytes.NewReader(nil)
	stream := func() {
		src.Reset(wire.Bytes())
		rd := NewReader(rcv, src)
		if _, err := rd.ReadObject(); err != nil {
			panic(err)
		}
		if _, err := rd.ReadObject(); err != io.EOF {
			panic(err)
		}
		rd.Free()
	}
	stream() // warm the pool
	if got := testing.AllocsPerRun(100, stream); got > 3 {
		t.Errorf("a one-root stream makes %.1f allocations, want at most 3", got)
	}
}

// TestWriterOpenCloseAllocs is the writer-side twin: once warm, opening a
// stream, writing it and closing it costs the same however many objects a
// root reaches and however many roots the stream carries. The gray and
// top-mark queues return to a pool on Close; grown from nil in every
// writer, they reallocated once per doubling, for every stream.
func TestWriterOpenCloseAllocs(t *testing.T) {
	skipIfInstrumented(t)
	snd, _, sky := testCluster(t)
	ck := snd.MustLoad("Cell")
	chain := func(n int) []heap.Addr {
		c := keep(t, snd, snd.MustNew(ck))
		for i := 1; i < n; i++ {
			next := snd.MustNew(ck)
			snd.SetRef(next, ck.FieldByName("next"), c)
			c = keep(t, snd, next)
		}
		return []heap.Addr{c}
	}
	stream := func(roots []heap.Addr) func() {
		return func() {
			sky.ShuffleStart()
			w := sky.NewWriter(io.Discard)
			if err := w.WriteObjects(roots); err != nil {
				panic(err)
			}
			if err := w.Close(); err != nil {
				panic(err)
			}
		}
	}
	small, large, many := chain(4), chain(32), recordCorpus(t, snd, 4000)
	stream(large)() // warm the pools
	stream(many)()
	s := testing.AllocsPerRun(100, stream(small))
	l := testing.AllocsPerRun(100, stream(large))
	m := testing.AllocsPerRun(100, stream(many))
	if s != l || s != m {
		t.Errorf("a stream of one root over 4 objects makes %.1f allocations, over 32 objects %.1f, of 4000 roots %.1f; want the same",
			s, l, m)
	}
}

// Free ends a stream: its pooled read buffer goes back at once, so a later
// ReadObject — at end of stream or with top marks still peeked out of that
// buffer — must fail without touching it, and a second Free must not hand the
// buffer out twice.
func TestReadAfterFreeFails(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	wire, want := recordStream(t, snd, sky, 10)
	for _, drain := range []bool{false, true} {
		rd := NewReader(rcv, bytes.NewReader(wire))
		if _, err := rd.ReadObject(); err != nil {
			t.Fatal(err)
		}
		if drain {
			if _, err := rd.ReadAll(); err != nil {
				t.Fatal(err)
			}
		} else if len(rd.tops) == 0 {
			t.Fatal("no top marks left peeked after the first root")
		}
		rd.Free()
		rd.Free()
		// Two streams open now; neither may share a buffer with the other.
		a, b := NewReader(rcv, bytes.NewReader(wire)), NewReader(rcv, bytes.NewReader(wire))
		if a.r == b.r {
			t.Fatal("a double Free handed one read buffer to two streams")
		}
		for i := 0; i < 3; i++ {
			if got, err := rd.ReadObject(); !errors.Is(err, errFreed) || got != heap.Null {
				t.Fatalf("drain=%v: ReadObject after Free = %#x, %v; want %v", drain, uint64(got), err, errFreed)
			}
		}
		checkRecords(t, rcv, a, want)
		checkRecords(t, rcv, b, want)
		a.Free()
		b.Free()
	}
}

// TestFullGCScanIndependentOfArenaBytes pins the tentpole's GC payoff: a
// full collection's root-scan work must not grow with resident arena bytes.
// Eagerly decoded streams park their objects in pinned chunks the collector
// walks on every full GC; the same streams held in arena regions contribute
// zero pinned-object scans — whether one stream is resident or four.
func TestFullGCScanIndependentOfArenaBytes(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	roots := allocCorpus(t, snd, 2, 16<<10)

	var buf bytes.Buffer
	sky.ShuffleStart()
	w := sky.NewWriter(&buf)
	for _, a := range roots {
		if err := w.WriteObject(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), buf.Bytes()...)

	decode := func(rt *vm.Runtime, opts ...ReaderOption) *Reader {
		t.Helper()
		r := NewReader(rt, bytes.NewReader(wire), opts...)
		for {
			if _, err := r.ReadObject(); err != nil {
				if err == io.EOF {
					return r
				}
				t.Fatal(err)
			}
		}
	}
	scansAfterFullGC := func(rt *vm.Runtime) uint64 {
		before := rt.GC.Stats().PinnedScanned
		rt.GC.FullGC()
		return rt.GC.Stats().PinnedScanned - before
	}

	// Eager baseline: pinned chunks resident, every object walked as a root.
	eagerRd := decode(rcv)
	if eager := scansAfterFullGC(rcv); eager == 0 {
		t.Fatal("eager decode left no pinned objects for the full GC to scan; the baseline is broken")
	}
	eagerRd.Free() // unpin the eager chunks so only arena residency remains

	// One arena stream resident vs. four. Zero pinned scans both ways —
	// scan work is independent of what the regions hold.
	for _, streams := range []int{1, 4} {
		var rds []*Reader
		for i := 0; i < streams; i++ {
			rds = append(rds, decode(rcv, WithArena()))
		}
		if rcv.Arena.Bytes() == 0 {
			t.Fatal("arena decode staged nothing")
		}
		if scans := scansAfterFullGC(rcv); scans != 0 {
			t.Errorf("full GC over %d resident arena streams (%d bytes) scanned %d pinned objects, want 0",
				streams, rcv.Arena.Bytes(), scans)
		}
		for _, r := range rds {
			r.Free()
		}
	}
}
