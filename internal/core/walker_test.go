package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"testing/iotest"

	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/vm"
)

// recordFold reduces a recordCorpus root to one number through rt's
// accessors: a Year4D's value, or a Date's day plus its year's value, so a
// Date's reference is followed.
func recordFold(rt *vm.Runtime, root heap.Addr) int64 {
	yk, dk := rt.MustLoad("Year4D"), rt.MustLoad("Date")
	if rt.KlassOf(root) == yk {
		return rt.GetInt(root, yk.FieldByName("value"))
	}
	return rt.GetInt(root, dk.FieldByName("day")) +
		rt.GetInt(rt.GetRef(root, dk.FieldByName("year")), yk.FieldByName("value"))
}

// recordStream encodes n recordCorpus roots and returns the wire bytes and
// each root's fold on the sender heap.
func recordStream(t *testing.T, snd *vm.Runtime, sky *Skyway, n int, opts ...WriterOption) ([]byte, []int64) {
	t.Helper()
	roots := recordCorpus(t, snd, n)
	want := make([]int64, n)
	for i, a := range roots {
		want[i] = recordFold(snd, a)
	}
	var buf bytes.Buffer
	encodeRecords(t, sky, roots, &buf, opts...)
	return buf.Bytes(), want
}

// checkRecords drains rd and compares every root's fold with want.
func checkRecords(t *testing.T, rt *vm.Runtime, rd *Reader, want []int64) {
	t.Helper()
	got, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d roots, want %d", len(got), len(want))
	}
	for i, a := range got {
		if f := recordFold(rt, a); f != want[i] {
			t.Fatalf("root %d folds to %d, want %d", i, f, want[i])
		}
	}
}

// wideRecords pins n Date roots on rt, each followed by a long[64] root, and
// returns the roots and each Date's fold: every Date after the first, the
// root behind a 544-byte long[64], takes a two-byte delta, and every long[] a
// one-byte one.
func wideRecords(t *testing.T, rt *vm.Runtime, n int) (roots []heap.Addr, want []int64) {
	t.Helper()
	yk, dk := rt.MustLoad("Year4D"), rt.MustLoad("Date")
	for i := 0; i < n; i++ {
		d := keep(t, rt, rt.MustNew(dk))
		rt.SetRef(d, dk.FieldByName("year"), keep(t, rt, rt.MustNew(yk)))
		rt.SetInt(d, dk.FieldByName("day"), int64(i))
		filler := keep(t, rt, rt.MustNewArray(rt.MustLoad("long[]"), 64))
		roots = append(roots, d, filler)
		want = append(want, int64(i))
	}
	return roots, want
}

// The reader takes top marks off bufio's buffer a window at a time, so a
// mark cut in two by the end of that buffer — at any byte, for any buffer
// size, or with the source trickling in a byte per Read — has to be put back
// together.
func TestTopMarkStraddlesBufferBoundary(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	// 4000 roots: one segment, then an 'M' frame of one-byte deltas that
	// spans many of the smaller buffers below.
	wire, want := recordStream(t, snd, sky, 4000)
	// The same when the buffer ends inside a two-byte delta.
	roots, wantWide := wideRecords(t, snd, 300)
	wide := encodeBatch(t, sky, roots, WithCompactHeaders())
	for _, size := range []int{16, 17, 25, 64, 4093, 4096} {
		rd := NewReader(rcv, bufio.NewReaderSize(bytes.NewReader(wire), size))
		checkRecords(t, rcv, rd, want)
		rd.Free()

		rd = NewReader(rcv, bufio.NewReaderSize(bytes.NewReader(wide), size))
		got, err := rd.ReadAll()
		if err != nil || len(got) != len(roots) {
			t.Fatalf("buffer of %d: decoded %d of %d roots: %v", size, len(got), len(roots), err)
		}
		for i, w := range wantWide {
			if f := recordFold(rcv, got[2*i]); f != w {
				t.Fatalf("buffer of %d: root %d folds to %d, want %d", size, 2*i, f, w)
			}
		}
		rd.Free()
	}
	for _, opts := range [][]ReaderOption{nil, {WithArena()}} {
		rd := NewReader(rcv, iotest.OneByteReader(bytes.NewReader(wire)), opts...)
		checkRecords(t, rcv, rd, want)
		rd.Free()
	}
}

// A stream cut anywhere inside its 'M' frame — in the length word, between
// marks, or inside a two-byte delta — yields the marks that arrived whole and
// then a frame error wrapping io.ErrUnexpectedEOF — never io.EOF, never a root
// made of half a mark. Both wires end the same way.
func TestStreamTruncatedInsideTopMark(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	roots, want := wideRecords(t, snd, 20)
	for _, opts := range [][]WriterOption{nil, {WithCompactHeaders()}} {
		stream := encodeBatch(t, sky, roots, opts...)
		// One segment, then the 'M' frame, then the end frame.
		segs := wireFrames(t, stream)
		hdr := 9
		if opts != nil {
			hdr = 13
		}
		first := segs[0] + hdr + int(binary.BigEndian.Uint32(stream[segs[0]+1:]))
		if len(segs) != 1 || stream[first] != frameMarks ||
			first+marksHeaderLen+int(binary.BigEndian.Uint32(stream[first+1:])) != len(stream)-1 {
			t.Fatalf("compact=%v: stream is not a segment followed by its top marks", opts != nil)
		}
		// Where each mark ends; some take two bytes.
		var ends []int
		for off := first + marksHeaderLen; off < len(stream)-1; {
			_, n := binary.Uvarint(stream[off:])
			off += n
			ends = append(ends, off)
		}
		if len(ends) != len(roots) || ends[len(ends)-1]-first-marksHeaderLen < len(roots)*5/4 {
			t.Fatalf("compact=%v: %d marks in %d bytes, want %d with two-byte ones among them",
				opts != nil, len(ends), ends[len(ends)-1]-first-marksHeaderLen, len(roots))
		}
		for cut := first; cut < len(stream); cut++ {
			whole := 0
			for whole < len(ends) && ends[whole] <= cut {
				whole++
			}
			rd := NewReader(rcv, bytes.NewReader(stream[:cut]))
			for i := 0; ; i++ {
				a, err := rd.ReadObject()
				if err == nil {
					if i >= whole {
						t.Fatalf("cut at %d: root %d decoded, only %d top marks are whole", cut, i, whole)
					}
					if i%2 == 0 {
						if f := recordFold(rcv, a); f != want[i/2] {
							t.Fatalf("cut at %d: root %d folds to %d, want %d", cut, i, f, want[i/2])
						}
					} else if n := rcv.ArrayLen(a); n != 64 {
						t.Fatalf("cut at %d: root %d is an array of %d, want 64", cut, i, n)
					}
					continue
				}
				de, ok := AsDecodeError(err)
				if !ok || de.Kind != DecodeFrame || !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("cut at %d: error %v, want a frame error wrapping io.ErrUnexpectedEOF", cut, err)
				}
				if i != whole {
					t.Fatalf("cut at %d: failed after %d roots, want %d", cut, i, whole)
				}
				break
			}
			rd.Free()
		}
	}
}

// fragmentBufferSpace leaves rt's input-buffer free list as holes of hole
// bytes, no two adjacent, so successive chunks no larger than a hole cannot
// be neighbours in the heap.
func fragmentBufferSpace(t *testing.T, rt *vm.Runtime, hole uint32, holes int) {
	t.Helper()
	h := rt.Heap
	var spans []heap.Addr
	for i := 0; i < 2*holes; i++ {
		a := h.AllocBuffer(hole)
		if a == heap.Null {
			t.Fatal("buffer space exhausted while fragmenting")
		}
		spans = append(spans, a)
	}
	for i := 0; i < len(spans); i += 2 {
		h.FreeBufferRange(spans[i], hole)
	}
}

// backRefStreamOpts is the segmentation of the multi-chunk stream below and
// of its copy in the FuzzReaderDecode corpus: every Date lands in a chunk of
// its own, far from the shared Year4Ds it points back to.
var backRefStreamOpts = []WriterOption{WithBufferSize(128)}

// References that point back into earlier chunks resolve through the chunk
// table. When the chunks are neighbours in the heap the reader stays contig
// and a reference translates with one addition; when buffer space is
// fragmented each back-reference falls through to the binary search; an arena
// reader composes a tag and never looks.
func TestBackReferencesAcrossChunks(t *testing.T) {
	for _, fragmented := range []bool{false, true} {
		snd, rcv, sky := testCluster(t)
		wire, want := recordStream(t, snd, sky, 600, backRefStreamOpts...)
		if fragmented {
			fragmentBufferSpace(t, rcv, 128, 1500)
		}
		rd := NewReader(rcv, bytes.NewReader(wire))
		checkRecords(t, rcv, rd, want)
		chunks := len(rd.chunks)
		if chunks < 100 {
			t.Fatalf("stream decoded into %d chunks; the test needs many", chunks)
		}
		if rd.contig == fragmented {
			t.Errorf("fragmented=%v: %d chunks left the reader with contig=%v", fragmented, chunks, rd.contig)
		}
		rd.Free()

		ard := NewReader(rcv, bytes.NewReader(wire), WithArena())
		checkRecords(t, rcv, ard, want)
		if len(ard.chunks) != chunks {
			t.Errorf("arena reader listed %d chunks, the eager one %d", len(ard.chunks), chunks)
		}
		ard.Free()
	}
}

// countingWriter counts the Write calls it receives.
type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// A stream costs its destination a bounded number of writes per segment —
// header, payload, and all of the segment's top marks as one — plus the
// stream header and the end frame, however many roots it carries.
func TestWritesPerStreamScaleWithSegments(t *testing.T) {
	snd, _, sky := testCluster(t)
	for _, compact := range []bool{false, true} {
		opts := []WriterOption{WithBufferSize(4 << 10)}
		if compact {
			opts = append(opts, WithCompactHeaders())
		}
		roots := recordCorpus(t, snd, 5000)
		var cw countingWriter
		encodeRecords(t, sky, roots, &cw, opts...)
		segments := len(wireFrames(t, cw.buf.Bytes()))
		if segments < 10 {
			t.Fatalf("stream has %d segments; the test needs many", segments)
		}
		if max := 3*segments + 2; cw.writes > max {
			t.Errorf("compact=%v: %d roots in %d segments took %d writes, want at most %d",
				compact, len(roots), segments, cw.writes, max)
		}
	}
}

// The arena walk leaves the receiver exactly where the in-place walk does,
// including a registered field update that reads the object it is updating
// through the runtime.
func TestArenaWalkMatchesInPlace(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	if err := rcv.RegisterUpdate("Date", "month", func(rt *vm.Runtime, obj heap.Addr) uint64 {
		dk := rt.KlassOf(obj)
		year := rt.GetRef(obj, dk.FieldByName("year"))
		return uint64(rt.GetInt(obj, dk.FieldByName("day")) + rt.GetInt(year, rt.KlassOf(year).FieldByName("value"))%12)
	}); err != nil {
		t.Fatal(err)
	}
	wire, want := recordStream(t, snd, sky, 900, WithBufferSize(1<<10))
	months := func(rd *Reader) []int64 {
		t.Helper()
		got, err := rd.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		dk := rcv.MustLoad("Date")
		var out []int64
		for i, a := range got {
			if f := recordFold(rcv, a); f != want[i] {
				t.Fatalf("root %d folds to %d, want %d", i, f, want[i])
			}
			if rcv.KlassOf(a) == dk {
				out = append(out, rcv.GetInt(a, dk.FieldByName("month")))
			}
		}
		return out
	}
	inPlace := NewReader(rcv, bytes.NewReader(wire))
	ref := months(inPlace)
	inPlace.Free()
	if len(ref) != 300 || ref[0] == 0 {
		t.Fatalf("field update did not run on the in-place walk: %d dates, first month %d", len(ref), ref[0])
	}

	arena := NewReader(rcv, bytes.NewReader(wire), WithArena())
	lazy := months(arena)
	arena.Free()
	for i := range ref {
		if lazy[i] != ref[i] {
			t.Fatalf("date %d: month %d in place, %d arena", i, ref[i], lazy[i])
		}
	}

	t.Run("shapes", func(t *testing.T) { walkersAgreeOnShape(t, snd, rcv, sky) })
}

// shapeRow is what one walker made of one object: its class, its padded size
// and the offsets of its reference slots.
type shapeRow struct {
	class string
	size  uint32
	slots []uint32
}

// shapeRows walks the size bytes at base object by object through one of the
// runtime's two shape views: live objects (ObjectSize / RefSlots) or wire
// images (ImageSize / ImageRefSlots).
func shapeRows(t *testing.T, rt *vm.Runtime, base heap.Addr, size uint32, images bool) []shapeRow {
	t.Helper()
	var rows []shapeRow
	for a, end := base, base.Add(size); a < end; {
		var r shapeRow
		add := func(off uint32) { r.slots = append(r.slots, off) }
		if images {
			k, err := rt.KlassByTID(int32(uint32(rt.Heap.KlassWord(a))))
			if err != nil {
				t.Fatalf("image %d: %v", len(rows), err)
			}
			r.class = k.Name
			r.size, _ = rt.ImageSize(a)
			rt.ImageRefSlots(a, add)
		} else {
			r.class, r.size = rt.KlassOf(a).Name, rt.ObjectSize(a)
			rt.RefSlots(a, add)
		}
		if r.size == 0 {
			t.Fatalf("object %d, a %s, has no size", len(rows), r.class)
		}
		rows = append(rows, r)
		a = a.Add(r.size)
	}
	return rows
}

// walkersAgreeOnShape is the cross-walker table: every object of one stream
// — records, a two-slot Pair with a null, a String, reference and primitive
// arrays of every element width, empty ones included — must have the same
// size and the same reference slots as a live object on the sender, as a
// wire image in an unwalked eager chunk, as a re-inflated compact record, as
// the object the in-place walk commits, as the image an arena handle
// resolves to, and as that handle's promoted copy.
func walkersAgreeOnShape(t *testing.T, snd, rcv *vm.Runtime, sky *Skyway) {
	var roots []heap.Addr
	root := func(a heap.Addr) heap.Addr {
		h := snd.Pin(a)
		t.Cleanup(h.Release)
		roots = append(roots, a)
		return a
	}
	for _, a := range recordCorpus(t, snd, 6) {
		root(a)
	}
	ck, pk := snd.MustLoad("Cell"), snd.MustLoad("Pair")
	pair := root(snd.MustNew(pk))
	snd.SetRef(pair, pk.FieldByName("b"), root(snd.MustNew(ck)))
	root(snd.MustNewString("skyway"))
	dates := root(snd.MustNewArray(snd.MustLoad("Date[]"), 3))
	for i := 0; i < 3; i++ {
		snd.ArraySetRef(dates, i, roots[2]) // a Date of the record corpus
	}
	root(snd.MustNewArray(snd.MustLoad("Date[]"), 0))
	for _, arr := range []struct {
		class string
		n     int
	}{{"byte[]", 5}, {"short[]", 3}, {"int[]", 5}, {"long[]", 2}, {"double[]", 1}, {"long[]", 0}} {
		a := root(snd.MustNewArray(snd.MustLoad(arr.class), arr.n))
		for i := 0; i < arr.n && arr.class != "double[]"; i++ {
			snd.ArraySetLong(a, i, int64(i+1))
		}
	}

	// payload returns the one segment of a stream of the roots.
	payload := func(tag byte, hdr int, opts ...WriterOption) []byte {
		var buf bytes.Buffer
		encodeRecords(t, sky, roots, &buf, opts...)
		f := buf.Bytes()[8:]
		if next := f[hdr+int(binary.BigEndian.Uint32(f[1:]))]; f[0] != tag || next != frameMarks {
			t.Fatalf("stream is not one %#x segment followed by its top marks", tag)
		}
		return f[:hdr+int(binary.BigEndian.Uint32(f[1:]))]
	}
	h := rcv.Heap
	stage := func(size uint32) heap.Addr {
		a := h.AllocBuffer(size)
		if a == heap.Null {
			t.Fatal("buffer allocation failed")
		}
		t.Cleanup(func() { h.FreeBufferRange(a, size) })
		return a
	}

	// The wire image, as it lands in an eager chunk no walker has touched.
	seg := payload(frameSegment, 9)[9:]
	size := uint32(len(seg))
	wireAt := stage(size)
	h.CopyIn(wireAt, size, seg)
	want := shapeRows(t, rcv, wireAt, size, true)
	if len(want) < len(roots) {
		t.Fatalf("%d images for %d roots", len(want), len(roots))
	}
	check := func(view string, got []shapeRow) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s disagrees with the wire images:\n got %v\nwant %v", view, got, want)
		}
	}

	// The compact record of each, re-inflated in place from the tail of its
	// chunk.
	frame := payload(frameRuns, 13, WithCompactHeaders())
	if decoded := binary.BigEndian.Uint32(frame[5:]); decoded != size {
		t.Fatalf("compact segment declares %d decoded bytes, the standard one has %d", decoded, size)
	}
	compact := frame[13:]
	inflatedAt := stage(size)
	img := h.ByteView(inflatedAt, size)
	copy(img[len(img)-len(compact):], compact)
	if err := NewReader(rcv, bytes.NewReader(nil)).inflate(img, uint32(len(compact))); err != nil {
		t.Fatal(err)
	}
	check("compact re-inflation", shapeRows(t, rcv, inflatedAt, size, true))

	// The objects the in-place walk commits, and the sender's own.
	var wire bytes.Buffer
	encodeRecords(t, sky, roots, &wire)
	eager := NewReader(rcv, bytes.NewReader(wire.Bytes()))
	got, err := eager.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(eager.chunks) != 1 {
		t.Fatalf("stream decoded into %d chunks, want 1", len(eager.chunks))
	}
	check("in-place walk", shapeRows(t, rcv, eager.chunks[0].base, uint32(len(eager.chunks[0].img)), false))
	for i, a := range got {
		ours, theirs := shapeRows(t, snd, roots[i], snd.ObjectSize(roots[i]), false), shapeRows(t, rcv, a, rcv.ObjectSize(a), false)
		if !reflect.DeepEqual(ours, theirs) {
			t.Errorf("root %d is %v on the sender, %v received", i, ours, theirs)
		}
	}
	eager.Free()

	// The arena image each handle resolves to — Promote copies exactly that
	// image into a pin of its own, and re-tags exactly its non-null
	// reference slots — and the promoted copy as a live object.
	lazy := NewReader(rcv, bytes.NewReader(wire.Bytes()), WithArena())
	defer lazy.Free()
	if _, err := lazy.ReadAll(); err != nil {
		t.Fatal(err)
	}
	var promoted []shapeRow
	off := uint32(0)
	for i, w := range want {
		hnd := heap.ComposeArenaAddr(lazy.region.ID(), relBias+uint64(off))
		p, err := rcv.Promote(hnd)
		if err != nil {
			t.Fatal(err)
		}
		r := shapeRow{class: rcv.KlassOf(hnd).Name}
		rcv.EachPinned(func(start heap.Addr, size uint32, _ bool) {
			if start == p {
				r.size = size
			}
		})
		nonNull := shapeRow{class: w.class, size: w.size}
		for _, s := range w.slots {
			if h.Load(wireAt.Add(off), s, klass.Ref) != 0 {
				nonNull.slots = append(nonNull.slots, s)
			}
		}
		for s := uint32(klass.OffKlass + klass.WordSize); s < r.size; s += klass.WordSize {
			if heap.IsArenaAddr(heap.Addr(h.Load(p, s, klass.Ref))) {
				r.slots = append(r.slots, s)
			}
		}
		if !reflect.DeepEqual(r, nonNull) {
			t.Errorf("object %d: arena image promotes as %v, want %v", i, r, nonNull)
		}
		promoted = append(promoted, shapeRows(t, rcv, p, w.size, false)...)
		off += w.size
	}
	check("promoted copies", promoted)
}

// A segment too short to hold an object header is a length error on both
// receive paths. (The arena scan used to index past the end of it.)
func TestSegmentShorterThanHeaderRejected(t *testing.T) {
	_, rcv, _ := testCluster(t)
	body := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	wire := append([]byte("SKYW\x02\x01\x00\x00"), frameSegment, 0, 0, 0, 8)
	wire = binary.BigEndian.AppendUint32(wire, crc32.Checksum(body, crcTable))
	wire = append(append(wire, body...), marksFrame(1)...)
	for _, opts := range [][]ReaderOption{nil, {WithArena()}} {
		rd := NewReader(rcv, bytes.NewReader(wire), opts...)
		_, err := rd.ReadObject()
		if de, ok := AsDecodeError(err); !ok || de.Kind != DecodeLength {
			t.Errorf("arena=%v: ReadObject = %v, want a length error", opts != nil, err)
		}
		rd.Free()
	}
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the generated FuzzReaderDecode corpus entries")

// The multi-chunk back-reference stream is checked into the FuzzReaderDecode
// corpus, encoded against the fuzz target's own classpath and registry order
// so its type IDs resolve there. This test regenerates it, so the entry can
// neither rot nor stop decoding.
func TestBackRefStreamInFuzzCorpus(t *testing.T) {
	snd, newRT := fuzzTarget(t)
	wire, want := recordStream(t, snd, New(snd), 60, backRefStreamOpts...)

	path := filepath.Join("testdata", "fuzz", "FuzzReaderDecode", "backrefs-across-chunks")
	entry := []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(wire)) + ")\n")
	if *updateCorpus {
		if err := os.WriteFile(path, entry, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, entry) {
		t.Fatalf("corpus entry %s is stale (%v); regenerate with -update-corpus", path, err)
	}
	rcv := newRT("fuzz-rcv")
	rd := NewReader(rcv, bytes.NewReader(wire))
	checkRecords(t, rcv, rd, want)
	if len(rd.chunks) < 20 {
		t.Errorf("corpus stream decoded into %d chunks; it is meant to span many", len(rd.chunks))
	}
	rd.Free()
}
