package core

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"skyway/internal/fault"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/vm"
)

// cachedHash reads the identity hash cached in an object's mark word without
// assigning one — for arena-resident objects straight from the relativized
// image, for promoted or managed objects from the word slab — so the
// equivalence walk can compare hash state across decode modes.
func cachedHash(rt *vm.Runtime, a heap.Addr) (uint32, bool) {
	if heap.IsArenaAddr(a) {
		reg := rt.Arena.MustRegion(heap.ArenaRegionOf(a))
		if p := reg.PromotedAddr(heap.ArenaRelOf(a)); p != heap.Null {
			return rt.Heap.HashOf(p)
		}
		b, err := reg.Tail(heap.ArenaRelOf(a))
		if err != nil {
			panic(err)
		}
		return heap.MarkHash(heap.LoadBytes(b, klass.OffMark, klass.Int64))
	}
	return rt.Heap.HashOf(a)
}

// TestArenaEquivalenceQuick is the arena counterpart of the compact
// equivalence property: for any random Cell graph, the lazy (arena) decode
// must be observationally identical to eager absolutization — same
// structure, same field values, same cached hashes — reading entirely
// through bounds-checked handles into the relativized image. A second phase
// then mutates every reachable cell identically on both sides, driving the
// copy-on-write promotion funnel, and re-walks: lazy-after-promotion must
// still match eager.
func TestArenaEquivalenceQuick(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	ck := snd.MustLoad("Cell")
	pk := snd.MustLoad("Pair")
	vF, nF := ck.FieldByName("v"), ck.FieldByName("next")
	rck := rcv.MustLoad("Cell")
	rpk := rcv.MustLoad("Pair")
	rvF, rnF := rck.FieldByName("v"), rck.FieldByName("next")
	raF, rbF := rpk.FieldByName("a"), rpk.FieldByName("b")

	f := func(vals []float64, links []uint8, hashSel uint8) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 25 {
			vals = vals[:25]
		}
		handles := make([]interface {
			Addr() heap.Addr
			Release()
		}, len(vals))
		for i, v := range vals {
			c := snd.MustNew(ck)
			snd.SetDouble(c, vF, v)
			handles[i] = snd.Pin(c)
		}
		defer func() {
			for _, h := range handles {
				h.Release()
			}
		}()
		for i := range handles {
			if len(links) == 0 {
				break
			}
			tgt := int(links[i%len(links)]) % len(handles)
			snd.SetRef(handles[i].Addr(), nF, handles[tgt].Addr())
		}
		for i := range handles {
			if (uint8(i)+hashSel)%3 == 0 {
				snd.HashCode(handles[i].Addr())
			}
		}
		root := snd.MustNew(pk)
		snd.SetRef(root, pk.FieldByName("a"), handles[0].Addr())
		snd.SetRef(root, pk.FieldByName("b"), handles[len(handles)-1].Addr())
		rootPin := snd.Pin(root)
		defer rootPin.Release()

		sky.ShuffleStart()
		var buf bytes.Buffer
		w := sky.NewWriter(&buf, WithBufferSize(256))
		if err := w.WriteObject(rootPin.Addr()); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		wire := buf.Bytes()

		eagerRoot, err := NewReader(rcv, bytes.NewReader(wire)).ReadObject()
		if err != nil {
			return false
		}
		ard := NewReader(rcv, bytes.NewReader(wire), WithArena())
		arenaRoot, err := ard.ReadObject()
		if err != nil {
			return false
		}
		// The lazy path must actually be lazy: the root is a tagged handle
		// into a resident region, not a heap copy.
		if !heap.IsArenaAddr(arenaRoot) {
			t.Fatal("arena decode returned an untagged (managed) root")
		}
		if reg := ard.ArenaRegion(); reg == nil || reg.Bytes() == 0 {
			t.Fatal("arena decode staged no region bytes")
		}

		type pairT struct{ a, b heap.Addr }
		var walk func(seen map[pairT]bool, a, b heap.Addr, depth int, mutate bool) bool
		walk = func(seen map[pairT]bool, a, b heap.Addr, depth int, mutate bool) bool {
			if depth > 120 {
				return true
			}
			if (a == heap.Null) != (b == heap.Null) {
				return false
			}
			if a == heap.Null || seen[pairT{a, b}] {
				return true
			}
			seen[pairT{a, b}] = true
			if rcv.KlassOf(a) != rcv.KlassOf(b) {
				return false
			}
			ha, oka := cachedHash(rcv, a)
			hb, okb := cachedHash(rcv, b)
			if oka != okb || ha != hb {
				return false
			}
			if rcv.KlassOf(a) == rck {
				va, vb := rcv.GetDouble(a, rvF), rcv.GetDouble(b, rvF)
				if va != vb {
					return false
				}
				if mutate {
					// Identical mutation on both sides: the arena side
					// promotes on this first write.
					rcv.SetDouble(a, rvF, va*2+1)
					rcv.SetDouble(b, rvF, va*2+1)
				}
				return walk(seen, rcv.GetRef(a, rnF), rcv.GetRef(b, rnF), depth+1, mutate)
			}
			return walk(seen, rcv.GetRef(a, raF), rcv.GetRef(b, raF), depth+1, mutate) &&
				walk(seen, rcv.GetRef(a, rbF), rcv.GetRef(b, rbF), depth+1, mutate)
		}
		if !walk(make(map[pairT]bool), eagerRoot, arenaRoot, 0, false) {
			return false
		}
		// Promotion-heavy phase: mutate every reachable cell mid-stage, then
		// verify the mixed promoted/lazy graph still matches eager.
		if !walk(make(map[pairT]bool), eagerRoot, arenaRoot, 0, true) {
			return false
		}
		if ard.ArenaRegion().Promotions() == 0 {
			t.Fatal("mutating every cell promoted nothing")
		}
		return walk(make(map[pairT]bool), eagerRoot, arenaRoot, 0, false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestArenaCompactEquivalence: Arena is a pure receiver-side policy, so it
// composes with the compact wire encoding — a compact stream decoded lazily
// must match the same stream decoded eagerly.
func TestArenaCompactEquivalence(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	ck := snd.MustLoad("Cell")
	vF, nF := ck.FieldByName("v"), ck.FieldByName("next")

	var prev heap.Addr
	pins := make([]interface{ Release() }, 0, 8)
	defer func() {
		for _, p := range pins {
			p.Release()
		}
	}()
	for i := 0; i < 8; i++ {
		c := snd.MustNew(ck)
		snd.SetDouble(c, vF, float64(i)*1.5)
		snd.SetRef(c, nF, prev)
		h := snd.Pin(c)
		pins = append(pins, h)
		prev = h.Addr()
	}

	sky.ShuffleStart()
	var buf bytes.Buffer
	w := sky.NewWriter(&buf, WithCompactHeaders(), WithBufferSize(128))
	if err := w.WriteObject(prev); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()

	eager, err := NewReader(rcv, bytes.NewReader(wire)).ReadObject()
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := NewReader(rcv, bytes.NewReader(wire), WithArena()).ReadObject()
	if err != nil {
		t.Fatal(err)
	}
	rck := rcv.MustLoad("Cell")
	a, b := eager, lazy
	for a != heap.Null || b != heap.Null {
		if (a == heap.Null) != (b == heap.Null) {
			t.Fatal("compact arena chain shorter or longer than eager")
		}
		if va, vb := rcv.GetDouble(a, rck.FieldByName("v")), rcv.GetDouble(b, rck.FieldByName("v")); va != vb {
			t.Fatalf("compact arena value %v, eager %v", vb, va)
		}
		a = rcv.GetRef(a, rck.FieldByName("next"))
		b = rcv.GetRef(b, rck.FieldByName("next"))
	}
}

// TestArenaFreeRetiresRegion: Free drops the decoder's reference and the
// region — no other references outstanding — is reclaimed from the space.
func TestArenaFreeRetiresRegion(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	wire := encodeOneDate(t, snd, sky)
	rd := NewReader(rcv, bytes.NewReader(wire), WithArena())
	if _, err := rd.ReadObject(); err != nil {
		t.Fatal(err)
	}
	reg := rd.ArenaRegion()
	if reg == nil || reg.Retired() {
		t.Fatal("decode did not leave a live region")
	}
	if rcv.Arena.Regions() != 1 {
		t.Fatalf("space holds %d regions, want 1", rcv.Arena.Regions())
	}
	rd.Free()
	if !reg.Retired() {
		t.Fatal("Free did not retire the sole-reference region")
	}
	if rcv.Arena.Regions() != 0 {
		t.Fatalf("space holds %d regions after Free, want 0", rcv.Arena.Regions())
	}
}

// TestArenaUseAfterRetirePanics is the lifecycle regression test: reading
// through a tagged handle whose region was force-retired (the stage-epoch
// backstop firing while someone still holds a record) must panic loudly
// naming the retired region — never touch unmapped memory, never return
// stale bytes. The bulk array read resolves once and then copies out of the
// mapping, so it is held to the same rule as a field read.
func TestArenaUseAfterRetirePanics(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	arrays, _, _ := arrayCorpus(t, snd, sky)
	for _, tc := range []struct {
		name string
		wire []byte
		read func(root heap.Addr)
	}{
		{"field", encodeOneDate(t, snd, sky), func(root heap.Addr) {
			rcv.GetInt(root, rcv.MustLoad("Date").FieldByName("month"))
		}},
		{"element", arrays, func(root heap.Addr) { rcv.ArrayGetLong(root, 0) }},
		{"bulk", arrays, func(root heap.Addr) { rcv.ArrayLongs(root, make([]int64, 8)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rd := NewReader(rcv, bytes.NewReader(tc.wire), WithArena())
			root, err := rd.ReadObject()
			if err != nil {
				t.Fatal(err)
			}
			tc.read(root) // live: fine
			rd.ArenaRegion().Release()
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("read through a retired region's handle did not panic")
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "retired region") {
					t.Fatalf("use-after-retire panic %v does not name the retired region", r)
				}
			}()
			tc.read(root)
		})
	}
}

// TestArenaPromoteFailpoint: the arena.promote.fail failpoint surfaces as a
// structured *fault.Error from the error-returning Promote funnel, and the
// object stays readable (unpromoted) afterwards.
func TestArenaPromoteFailpoint(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	wire := encodeOneDate(t, snd, sky)
	rd := NewReader(rcv, bytes.NewReader(wire), WithArena())
	defer rd.Free()
	root, err := rd.ReadObject()
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Configure(fault.ArenaPromoteFail + ":on*times=1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)
	if _, err := rcv.Promote(root); err == nil {
		t.Fatal("promotion under arena.promote.fail reported success")
	} else {
		var fe *fault.Error
		if !errors.As(err, &fe) {
			t.Fatalf("promotion failure is %T, want *fault.Error in the chain: %v", err, err)
		}
	}
	dk := rcv.MustLoad("Date")
	if got := rcv.GetInt(root, dk.FieldByName("month")); got != 3 {
		t.Fatalf("object unreadable after failed promotion: month = %d", got)
	}
	// The point has burned its one firing; the retry succeeds and the
	// promoted copy serves subsequent reads.
	p, err := rcv.Promote(root)
	if err != nil {
		t.Fatal(err)
	}
	if heap.IsArenaAddr(p) || p == heap.Null {
		t.Fatalf("promotion returned %#x, want a managed address", uint64(p))
	}
	if got := rcv.GetInt(root, dk.FieldByName("month")); got != 3 {
		t.Fatalf("promoted copy disagrees: month = %d", got)
	}
}

// encodeOneDate encodes the canonical two-object Date graph and returns the
// wire bytes.
func encodeOneDate(t *testing.T, snd *vm.Runtime, sky *Skyway) []byte {
	t.Helper()
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
	dp := snd.Pin(do)
	defer dp.Release()

	sky.ShuffleStart()
	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.WriteObject(dp.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// arrayCorpus is the bulk-read suite's input: primitive arrays as the roots
// of one stream cut into two segments, each of which a zero-length long[]
// closes — the arrays whose (empty) payload starts exactly where a segment,
// and for the second the whole region, ends. It returns the wire and the
// arrays' values and klass names in root order.
func arrayCorpus(t testing.TB, snd *vm.Runtime, sky *Skyway) (wire []byte, vals [][]int64, kinds []string) {
	t.Helper()
	kinds = []string{"long[]", "int[]", "long[]", "short[]", "byte[]", "long[]"}
	vals = [][]int64{
		{3, -1, 1 << 40, -(1 << 62), 0, 7},
		{-5, 1<<31 - 1, -(1 << 31), 0, 12},
		{}, // closes the first segment
		{-300, 299, -1},
		{-128, 127, -1, 0, 5},
		{}, // closes the last segment
	}
	sky.ShuffleStart()
	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	for i, v := range vals {
		arr := snd.MustNewArray(snd.MustLoad(kinds[i]), len(v))
		snd.ArrayPutLongs(arr, v)
		if err := w.WriteObject(arr); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), vals, kinds
}

// perElement is the reference the bulk read is checked against.
func perElement(rt *vm.Runtime, a heap.Addr) []int64 {
	out := make([]int64, rt.ArrayLen(a))
	for i := range out {
		out[i] = rt.ArrayGetLong(a, i)
	}
	return out
}

// TestArrayLongsEquivalence: the bulk read returns exactly what the
// per-element loop returns — sign extension included — on eagerly decoded
// arrays, on arena handles, and on handles that have been promoted and then
// mutated, where it must see the mutated copy and not the region's image,
// for every integer width (long[], int[] and byte[] promote by an element
// write, short[] by a bulk fill); zero-length arrays at a segment's end and
// at the region's end read as empty; and filling a handle in bulk promotes
// it exactly once and truncates as the per-element write does.
func TestArrayLongsEquivalence(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	wire, vals, kinds := arrayCorpus(t, snd, sky)

	erd := NewReader(rcv, bytes.NewReader(wire))
	defer erd.Free()
	eager, err := erd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	ard := NewReader(rcv, bytes.NewReader(wire), WithArena())
	defer ard.Free()
	lazy, err := ard.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(eager) != len(vals) || len(lazy) != len(vals) {
		t.Fatalf("decoded %d eager and %d arena roots, want %d", len(eager), len(lazy), len(vals))
	}
	var dst []int64
	for i, want := range vals {
		if !heap.IsArenaAddr(lazy[i]) {
			t.Fatalf("root %d: arena decode returned a managed address", i)
		}
		for _, side := range []struct {
			name string
			a    heap.Addr
		}{{"eager", eager[i]}, {"arena", lazy[i]}} {
			dst = rcv.ArrayLongs(side.a, dst)
			if !slices.Equal(dst, want) || !slices.Equal(dst, perElement(rcv, side.a)) {
				t.Errorf("%s %s (root %d): ArrayLongs = %v, per-element = %v, sent %v",
					side.name, kinds[i], i, dst, perElement(rcv, side.a), want)
			}
		}
	}
	if got := rcv.ArrayLongs(lazy[2], dst[:3]); len(got) != 0 {
		t.Fatalf("zero-length array read into a non-empty dst came back with %d elements", len(got))
	}

	// Promote + mutate: element writes land in the promoted copy only.
	reg := ard.ArenaRegion()
	for _, i := range []int{0, 1, 4} {
		rcv.ArraySetLong(lazy[i], 1, -77)
		rcv.ArraySetLong(eager[i], 1, -77)
		want := append([]int64(nil), vals[i]...)
		want[1] = -77
		if dst = rcv.ArrayLongs(lazy[i], dst); !slices.Equal(dst, want) || !slices.Equal(dst, perElement(rcv, lazy[i])) {
			t.Errorf("promoted %s: ArrayLongs = %v, want the mutated copy %v", kinds[i], dst, want)
		}
		if dst = rcv.ArrayLongs(eager[i], dst); !slices.Equal(dst, want) {
			t.Errorf("eager %s after the same mutation: ArrayLongs = %v, want %v", kinds[i], dst, want)
		}
	}
	if n := reg.Promotions(); n != 3 {
		t.Fatalf("three mutated arrays left %d promotions", n)
	}

	// A bulk fill of a handle is one mutation: one promotion, however many
	// elements, and none on a refill.
	fill := []int64{9, -9, 1<<33 | 1<<15}
	for pass := 0; pass < 2; pass++ {
		rcv.ArrayPutLongs(lazy[3], fill)
		if n := reg.Promotions(); n != 4 {
			t.Fatalf("pass %d: ArrayPutLongs on a handle left %d promotions, want 4", pass, n)
		}
	}
	want := []int64{9, -9, -(1 << 15)}
	if dst = rcv.ArrayLongs(lazy[3], dst); !slices.Equal(dst, want) || !slices.Equal(dst, perElement(rcv, lazy[3])) {
		t.Fatalf("short[] after a bulk fill reads %v, want the truncated fill %v", dst, want)
	}
}

// TestArrayLongsRejectsNonIntegerArrays: the bulk integer read refuses a
// char[] (zero-extending UTF-16 units into int64 is not a sign-extending
// integer read) the same way on a managed array and through a handle.
func TestArrayLongsRejectsNonIntegerArrays(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	str := snd.Pin(snd.MustNewString("héllo"))
	defer str.Release()
	sky.ShuffleStart()
	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.WriteObject(str.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts []ReaderOption
	}{{"eager", nil}, {"arena", []ReaderOption{WithArena()}}} {
		t.Run(mode.name, func(t *testing.T) {
			rd := NewReader(rcv, bytes.NewReader(buf.Bytes()), mode.opts...)
			defer rd.Free()
			root, err := rd.ReadObject()
			if err != nil {
				t.Fatal(err)
			}
			if got := rcv.GoString(root); got != "héllo" {
				t.Fatalf("GoString = %q", got)
			}
			chars := rcv.GetRef(root, rcv.MustLoad(vm.StringClass).FieldByName("value"))
			defer func() {
				if msg, ok := recover().(string); !ok || !strings.Contains(msg, "char[]") {
					t.Fatalf("ArrayLongs on a char[] did not reject it: %v", msg)
				}
			}()
			rcv.ArrayLongs(chars, nil)
		})
	}
}

// TestArrayLongsDoesNotAllocate: into a dst that is large enough the bulk
// read allocates nothing, on either side of the tag test and through a
// promoted handle, and neither does a bulk write that needs no promotion.
func TestArrayLongsDoesNotAllocate(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	wire, vals, _ := arrayCorpus(t, snd, sky)
	for _, mode := range []struct {
		name    string
		opts    []ReaderOption
		promote bool
	}{{"eager", nil, false}, {"arena", []ReaderOption{WithArena()}, false}, {"promoted", []ReaderOption{WithArena()}, true}} {
		rd := NewReader(rcv, bytes.NewReader(wire), mode.opts...)
		roots, err := rd.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if mode.promote {
			for _, a := range roots {
				if _, err := rcv.Promote(a); err != nil {
					t.Fatal(err)
				}
			}
		}
		dst := make([]int64, 16)
		if n := testing.AllocsPerRun(100, func() {
			for _, a := range roots {
				dst = rcv.ArrayLongs(a, dst)
			}
		}); n != 0 {
			t.Errorf("%s: ArrayLongs into a reused dst allocates %v times per sweep", mode.name, n)
		}
		if mode.opts == nil || mode.promote {
			if n := testing.AllocsPerRun(100, func() {
				for i, a := range roots {
					rcv.ArrayPutLongs(a, vals[i])
				}
			}); n != 0 {
				t.Errorf("%s: ArrayPutLongs allocates %v times per sweep", mode.name, n)
			}
		}
		rd.Free()
	}
}

// BenchmarkArrayRead prices one element of a received long[] on each side
// of the tag test — eagerly decoded, behind an arena handle, behind a
// promoted handle — read one ArrayGetLong at a time and in one ArrayLongs.
func BenchmarkArrayRead(b *testing.B) {
	snd, rcv, sky := testCluster(b)
	const n = 4096
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(uint64(i) * 0x9E3779B97F4A7C15)
	}
	arr := snd.MustNewArray(snd.MustLoad("long[]"), n)
	snd.ArrayPutLongs(arr, vals)
	sky.ShuffleStart()
	var buf bytes.Buffer
	w := sky.NewWriter(&buf)
	if err := w.WriteObject(arr); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	var sink int64
	for _, side := range []struct {
		name    string
		opts    []ReaderOption
		promote bool
	}{{"eager", nil, false}, {"arena", []ReaderOption{WithArena()}, false}, {"arena-promoted", []ReaderOption{WithArena()}, true}} {
		rd := NewReader(rcv, bytes.NewReader(buf.Bytes()), side.opts...)
		a, err := rd.ReadObject()
		if err != nil {
			b.Fatal(err)
		}
		if side.promote {
			if _, err := rcv.Promote(a); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(side.name+"/per-element", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					sink += rcv.ArrayGetLong(a, j)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
		b.Run(side.name+"/bulk", func(b *testing.B) {
			b.ReportAllocs()
			dst := make([]int64, n)
			for i := 0; i < b.N; i++ {
				dst = rcv.ArrayLongs(a, dst)
				sink += dst[i%n]
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
		rd.Free()
	}
	_ = sink
}
