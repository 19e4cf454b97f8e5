package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"testing/iotest"

	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/registry"
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

// The reader takes top marks off bufio's buffer a window at a time, so a
// mark cut in two by the end of that buffer — at any byte, for any buffer
// size, or with the source trickling in a byte per Read — has to be put back
// together.
func TestTopMarkStraddlesBufferBoundary(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	// 4000 roots: ~36 KB of top marks behind each segment, more than two of
	// the default 16 KiB buffers.
	wire, want := recordStream(t, snd, sky, 4000)
	for _, size := range []int{16, 17, 25, 64, 4093, 4096} {
		rd := NewReader(rcv, bufio.NewReaderSize(bytes.NewReader(wire), size))
		checkRecords(t, rcv, rd, want)
		rd.Free()
	}
	for _, opts := range [][]ReaderOption{nil, {WithArena()}} {
		rd := NewReader(rcv, iotest.OneByteReader(bytes.NewReader(wire)), opts...)
		checkRecords(t, rcv, rd, want)
		rd.Free()
	}
}

// A stream cut anywhere inside its run of top marks yields the marks that
// arrived whole and then a frame error wrapping io.ErrUnexpectedEOF — never
// io.EOF, never a root made of half a mark.
func TestStreamTruncatedInsideTopMark(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	const n = 40
	wire, want := recordStream(t, snd, sky, n)
	// One segment, then n top marks, then the end frame.
	first := len(wire) - 1 - n*topFrameLen
	if wire[first] != frameTop || wire[len(wire)-1] != frameEnd {
		t.Fatalf("stream is not a segment followed by %d top marks", n)
	}
	for cut := first; cut < len(wire); cut++ {
		whole := (cut - first) / topFrameLen
		rd := NewReader(rcv, bytes.NewReader(wire[:cut]))
		for i := 0; ; i++ {
			a, err := rd.ReadObject()
			if err == nil {
				if i >= whole {
					t.Fatalf("cut at %d: root %d decoded, only %d top marks are whole", cut, i, whole)
				}
				if f := recordFold(rcv, a); f != want[i] {
					t.Fatalf("cut at %d: root %d folds to %d, want %d", cut, i, f, want[i])
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

// References that point back into earlier chunks resolve through the run
// table. When the chunks are neighbours in the heap the table is one run and
// the hint never misses; when buffer space is fragmented every chunk is its
// own run and each back-reference falls through to the binary search.
func TestBackReferencesAcrossChunks(t *testing.T) {
	for _, fragmented := range []bool{false, true} {
		snd, rcv, sky := testCluster(t)
		wire, want := recordStream(t, snd, sky, 600, backRefStreamOpts...)
		if fragmented {
			fragmentBufferSpace(t, rcv, 128, 1500)
		}
		rd := NewReader(rcv, bytes.NewReader(wire))
		checkRecords(t, rcv, rd, want)
		if len(rd.chunks) < 100 {
			t.Fatalf("stream decoded into %d chunks; the test needs many", len(rd.chunks))
		}
		if fragmented && len(rd.runs) < len(rd.chunks)/2 {
			t.Errorf("fragmented buffer space still merged %d chunks into %d runs", len(rd.chunks), len(rd.runs))
		}
		if !fragmented && len(rd.runs) != 1 {
			t.Errorf("%d neighbouring chunks made %d runs, want 1", len(rd.chunks), len(rd.runs))
		}
		rd.Free()

		ard := NewReader(rcv, bytes.NewReader(wire), WithArena())
		checkRecords(t, rcv, ard, want)
		if len(ard.runs) != 1 {
			t.Errorf("arena reader has %d runs, want 1", len(ard.runs))
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
		segments := 0
		for rest := cw.buf.Bytes()[8:]; len(rest) > 0; {
			switch rest[0] {
			case frameSegment:
				segments++
				rest = rest[9+binary.BigEndian.Uint32(rest[1:]):]
			case frameCompact:
				segments++
				rest = rest[13+binary.BigEndian.Uint32(rest[1:]):]
			case frameTop:
				rest = rest[topFrameLen:]
			case frameEnd:
				rest = rest[1:]
			default:
				t.Fatalf("unknown frame tag %#x", rest[0])
			}
		}
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
}

// A segment too short to hold an object header is a length error on both
// receive paths. (The arena scan used to index past the end of it.)
func TestSegmentShorterThanHeaderRejected(t *testing.T) {
	_, rcv, _ := testCluster(t)
	wire := append([]byte("SKYW\x01\x01\x00\x00"), frameSegment, 0, 0, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8,
		frameTop, 0, 0, 0, 0, 0, 0, 0, 8)
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
	newRT := func(name string) *vm.Runtime {
		rt, err := vm.NewRuntime(cp, vm.Options{Name: name, Registry: registry.InProc{R: reg}, Heap: fuzzHeap()})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	snd := newRT("fuzz-snd")
	snd.MustLoad("Date") // fuzzSeeds' registration order: Date, then Year4D
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
