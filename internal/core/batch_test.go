package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"skyway/internal/heap"
	"skyway/internal/vm"
)

// keep pins a on rt for the length of the test and returns it.
func keep(t testing.TB, rt *vm.Runtime, a heap.Addr) heap.Addr {
	t.Helper()
	h := rt.Pin(a)
	t.Cleanup(h.Release)
	return h.Addr()
}

// encodeBatch writes roots as one WriteObjects call of a fresh stream in a
// fresh phase and returns the stream.
func encodeBatch(t testing.TB, sky *Skyway, roots []heap.Addr, opts ...WriterOption) []byte {
	t.Helper()
	var buf bytes.Buffer
	sky.ShuffleStart()
	w := sky.NewWriter(&buf, opts...)
	if err := w.WriteObjects(roots); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// WriteObjects(roots) is the WriteObject loop, byte for byte, on both wires:
// over roots that share subgraphs (every third record points at one of 16
// shared Year4Ds, two Pairs share a Cell chain), a root sent twice, a null
// root, and — with a 1 KiB buffer — a batch that straddles many segment
// flushes. Only the stream ID in the header tells the two streams apart.
func TestWriteObjectsMatchesPerRootLoop(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	roots := recordCorpus(t, snd, 300)
	ck, pk := snd.MustLoad("Cell"), snd.MustLoad("Pair")
	chain := keep(t, snd, snd.MustNew(ck))
	for i := 0; i < 30; i++ {
		c := snd.MustNew(ck)
		snd.SetDouble(c, ck.FieldByName("v"), float64(i))
		snd.SetRef(c, ck.FieldByName("next"), chain)
		chain = keep(t, snd, c)
	}
	for i := 0; i < 2; i++ {
		p := keep(t, snd, snd.MustNew(pk))
		snd.SetRef(p, pk.FieldByName("a"), chain)
		roots = append(roots[:100+i], append([]heap.Addr{p}, roots[100+i:]...)...)
	}
	roots = append(roots, roots[7], heap.Null, roots[101], roots[299])

	for _, tc := range []struct {
		name     string
		opts     []WriterOption
		segments int // at least
	}{
		{"standard", nil, 1},
		{"compact", []WriterOption{WithCompactHeaders()}, 1},
		{"standard, 256-byte buffer", []WriterOption{WithBufferSize(256)}, 30},
		{"compact, 256-byte buffer", []WriterOption{WithBufferSize(256), WithCompactHeaders()}, 15},
	} {
		var loop bytes.Buffer
		encodeRecords(t, sky, roots, &loop, tc.opts...)
		batch := encodeBatch(t, sky, roots, tc.opts...)
		if !bytes.Equal(loop.Bytes()[:6], batch[:6]) || !bytes.Equal(loop.Bytes()[8:], batch[8:]) {
			t.Errorf("%s: WriteObjects wrote %d bytes, the WriteObject loop %d, and they differ", tc.name, len(batch), loop.Len())
		}
		if n := len(wireFrames(t, batch)); n < tc.segments {
			t.Errorf("%s: the batch spans %d segments; the test needs %d", tc.name, n, tc.segments)
		}
		rd := NewReader(rcv, bytes.NewReader(batch))
		got, err := rd.ReadAll()
		if err != nil || len(got) != len(roots) {
			t.Fatalf("%s: decoded %d of %d roots: %v", tc.name, len(got), len(roots), err)
		}
		if got[len(got)-3] != heap.Null || got[len(got)-4] != got[7] || got[len(got)-2] != got[101] {
			t.Errorf("%s: the null and repeated roots did not come back as such", tc.name)
		}
		rd.Free()
	}
}

// compactRun is one run of a compact segment as it stands on the wire.
type compactRun struct {
	class  string
	hashed bool
	count  int
	lens   []uint64 // array lengths, one per record of an array run
}

// compactFrames parses a compact stream's frames: the runs of each 'R'
// segment — walked with rt's klasses, independently of Reader.inflate — and
// the body of each 'M' frame.
func compactFrames(t *testing.T, rt *vm.Runtime, wire []byte) (segments [][]compactRun, marks [][]byte) {
	t.Helper()
	for off := 8; wire[off] != frameEnd; {
		n := int(binary.BigEndian.Uint32(wire[off+1:]))
		switch wire[off] {
		case frameMarks:
			marks = append(marks, wire[off+marksHeaderLen:off+marksHeaderLen+n])
			off += marksHeaderLen + n
		case frameRuns:
			p := wire[off+13 : off+13+n]
			off += 13 + n
			var runs []compactRun
			for len(p) > 0 {
				tid, w := binary.Uvarint(p)
				k, err := rt.KlassByTID(int32(tid))
				if err != nil {
					t.Fatal(err)
				}
				flags := p[w]
				p = p[w+1:]
				r := compactRun{class: k.Name, hashed: flags&compactFlagHashed != 0, count: int(flags>>compactRunShift) + 1}
				for i := 0; i < r.count; i++ {
					if r.hashed {
						p = p[4:]
					}
					var n uint64
					if k.IsArray {
						n, w = binary.Uvarint(p)
						p = p[w:]
						r.lens = append(r.lens, n)
					}
					size, _, _ := k.Extent(n, 1<<30)
					p = p[size-k.HeaderBytes:]
				}
				runs = append(runs, r)
			}
			segments = append(segments, runs)
		default:
			t.Fatalf("frame %q in a compact stream", wire[off])
		}
	}
	return segments, marks
}

// Where the compact wire's runs and delta marks begin and end.
func TestCompactRunAndMarkBoundaries(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	yk := snd.MustLoad("Year4D")
	years := func(n int) []heap.Addr {
		out := make([]heap.Addr, n)
		for i := range out {
			out[i] = keep(t, snd, snd.MustNew(yk))
			snd.SetInt(out[i], yk.FieldByName("value"), int64(1000+i))
		}
		return out
	}
	longs := func(n int) heap.Addr {
		a := keep(t, snd, snd.MustNewArray(snd.MustLoad("long[]"), n))
		for i := 0; i < n; i++ {
			snd.ArraySetLong(a, i, int64(n*100+i))
		}
		return a
	}
	// decode reads wire back and checks every root against the sender's.
	decode := func(t *testing.T, wire []byte, roots []heap.Addr) []heap.Addr {
		t.Helper()
		rd := NewReader(rcv, bytes.NewReader(wire))
		t.Cleanup(rd.Free)
		got, err := rd.ReadAll()
		if err != nil || len(got) != len(roots) {
			t.Fatalf("decoded %d of %d roots: %v", len(got), len(roots), err)
		}
		for i, a := range got {
			if roots[i] == heap.Null {
				if a != heap.Null {
					t.Errorf("root %d is null on the sender, %#x received", i, uint64(a))
				}
				continue
			}
			ours, theirs := shapeRows(t, snd, roots[i], snd.ObjectSize(roots[i]), false), shapeRows(t, rcv, a, rcv.ObjectSize(a), false)
			if !reflect.DeepEqual(ours, theirs) {
				t.Errorf("root %d is %v on the sender, %v received", i, ours, theirs)
			}
		}
		return got
	}
	year := func(count int) compactRun { return compactRun{class: "Year4D", count: count} }

	t.Run("65 records of one klass", func(t *testing.T) {
		roots := years(65)
		wire := encodeBatch(t, sky, roots, WithCompactHeaders())
		segs, marks := compactFrames(t, rcv, wire)
		if want := [][]compactRun{{year(64), year(1)}}; !reflect.DeepEqual(segs, want) {
			t.Errorf("runs %v, want %v", segs, want)
		}
		// An in-order 32-byte root is delta 4: one byte, 2*4+1, the first 1.
		if want := append([]byte{1}, bytes.Repeat([]byte{9}, 64)...); len(marks) != 1 || !bytes.Equal(marks[0], want) {
			t.Errorf("marks % x, want % x", marks, want)
		}
		// Stream header, segment header, two run headers and 65 8-byte
		// payloads, the marks frame, the end.
		if want := 8 + 13 + 2*2 + 65*8 + marksHeaderLen + 65 + 1; len(wire) != want {
			t.Errorf("stream is %d bytes, want %d", len(wire), want)
		}
		got := decode(t, wire, roots)
		if v := rcv.GetInt(got[64], rcv.MustLoad("Year4D").FieldByName("value")); v != 1064 {
			t.Errorf("the 65th record's value = %d, want 1064", v)
		}
	})

	t.Run("hashed record inside an unhashed run", func(t *testing.T) {
		roots := years(5)
		want := snd.HashCode(roots[2])
		wire := encodeBatch(t, sky, roots, WithCompactHeaders())
		segs, _ := compactFrames(t, rcv, wire)
		hashed := year(1)
		hashed.hashed = true
		if want := [][]compactRun{{year(2), hashed, year(2)}}; !reflect.DeepEqual(segs, want) {
			t.Errorf("runs %v, want %v", segs, want)
		}
		got := decode(t, wire, roots)
		for i, a := range got {
			if h, ok := rcv.Heap.HashOf(a); ok != (i == 2) || (ok && h != want) {
				t.Errorf("root %d: hash %#x, %v", i, h, ok)
			}
		}
	})

	t.Run("arrays of different lengths share a run", func(t *testing.T) {
		roots := []heap.Addr{longs(1), longs(0), longs(5)}
		wire := encodeBatch(t, sky, roots, WithCompactHeaders())
		segs, _ := compactFrames(t, rcv, wire)
		if want := [][]compactRun{{{class: "long[]", count: 3, lens: []uint64{1, 0, 5}}}}; !reflect.DeepEqual(segs, want) {
			t.Errorf("runs %v, want %v", segs, want)
		}
		got := decode(t, wire, roots)
		if v := rcv.ArrayGetLong(got[2], 4); v != 504 {
			t.Errorf("long[5][4] = %d, want 504", v)
		}
	})

	t.Run("a flush cuts the run", func(t *testing.T) {
		roots := years(6)
		var buf bytes.Buffer
		sky.ShuffleStart()
		w := sky.NewWriter(&buf, WithCompactHeaders())
		if err := w.WriteObjects(roots[:3]); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteObjects(roots[3:]); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		segs, marks := compactFrames(t, rcv, buf.Bytes())
		if want := [][]compactRun{{year(3)}, {year(3)}}; !reflect.DeepEqual(segs, want) {
			t.Errorf("runs %v, want %v", segs, want)
		}
		// The second frame's first delta is against the first frame's last mark.
		if want := [][]byte{{1, 9, 9}, {9, 9, 9}}; !reflect.DeepEqual(marks, want) {
			t.Errorf("marks % x, want % x", marks, want)
		}
		decode(t, buf.Bytes(), roots)

		// The same when it is a full buffer that flushes: every segment opens
		// its own run.
		roots = years(40)
		wire := encodeBatch(t, sky, roots, WithCompactHeaders(), WithBufferSize(128))
		segs, _ = compactFrames(t, rcv, wire)
		if len(segs) < 4 {
			t.Fatalf("%d segments; the test needs several", len(segs))
		}
		total := 0
		for _, runs := range segs {
			if len(runs) != 1 || runs[0].class != "Year4D" {
				t.Fatalf("segment holds runs %v, want one Year4D run", runs)
			}
			total += runs[0].count
		}
		if total != 40 {
			t.Errorf("runs hold %d records, want 40", total)
		}
		decode(t, wire, roots)
	})

	t.Run("back-reference root between new roots", func(t *testing.T) {
		y := years(3)
		roots := []heap.Addr{y[0], y[1], y[0], heap.Null, y[2]}
		wire := encodeBatch(t, sky, roots, WithCompactHeaders())
		segs, marks := compactFrames(t, rcv, wire)
		if want := [][]compactRun{{year(3)}}; !reflect.DeepEqual(segs, want) {
			t.Errorf("runs %v, want %v", segs, want)
		}
		// +0, +4 words, −4 words (zigzag 7), null, +8 words from the back-reference.
		if want := [][]byte{{1, 9, 8, 0, 17}}; !reflect.DeepEqual(marks, want) {
			t.Errorf("marks % x, want % x", marks, want)
		}
		got := decode(t, wire, roots)
		if got[2] != got[0] {
			t.Error("the repeated root came back as a second object")
		}
	})

	t.Run("a graph of 512 bytes or more takes a two-byte delta", func(t *testing.T) {
		roots := []heap.Addr{longs(59), years(1)[0], longs(60), years(1)[0]}
		wire := encodeBatch(t, sky, roots, WithCompactHeaders())
		_, marks := compactFrames(t, rcv, wire)
		// long[59] is 32 + 472 = 504 bytes, delta 63: the last one-byte mark.
		// long[60] is 512 bytes, delta 64: zigzag 128, + 1, two bytes.
		if want := [][]byte{{1, 127, 9, 0x81, 0x01}}; !reflect.DeepEqual(marks, want) {
			t.Errorf("marks % x, want % x", marks, want)
		}
		decode(t, wire, roots)
	})
}

// A warm WriteObjects allocates nothing, on either wire: 10 000 records a
// call, into a writer whose buffers the first call sized.
func TestWarmWriteObjectsAllocatesNothing(t *testing.T) {
	skipIfInstrumented(t)
	snd, _, sky := testCluster(t)
	const batch, runs = 10000, 5
	roots := recordCorpus(t, snd, batch*(runs+2))
	for _, opts := range [][]WriterOption{{WithBufferSize(64 << 10)}, {WithBufferSize(64 << 10), WithCompactHeaders()}} {
		sky.ShuffleStart()
		w := sky.NewWriter(io.Discard, opts...)
		next := 0
		write := func() {
			if err := w.WriteObjects(roots[next : next+batch]); err != nil {
				t.Fatal(err)
			}
			next += batch
		}
		write() // sizes the buffer, the top-mark queue and the gray queue
		if got := testing.AllocsPerRun(runs, write); got != 0 {
			t.Errorf("%d options: a warm WriteObjects of %d records makes %.0f allocations, want 0", len(opts), batch, got)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Under SKYWAY_VERIFY a compact writer decodes its own delta queue at every
// flush, from the mark the previous 'M' frame ended on: a clean stream of
// several flushes passes, and a queue that no longer says what was queued —
// here, a delta rewritten to land beyond the flushed space — fails the flush.
func TestVerifyTopsDecodesDeltaQueue(t *testing.T) {
	snd, _, sky := testCluster(t)
	roots := recordCorpus(t, snd, 600)
	sky.ShuffleStart()
	w := sky.NewWriter(io.Discard, WithCompactHeaders(), WithBufferSize(512))
	w.verify = true
	if err := w.WriteObjects(roots[:300]); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("clean stream: %v", err)
	}
	if w.flushedTop == relBias || w.flushedTop != w.prevTop {
		t.Fatalf("after a flush the verifier stands at %#x, the writer at %#x", w.flushedTop, w.prevTop)
	}
	// Stay inside the output buffer, so the marks are still queued.
	if err := w.WriteObjects(roots[300:303]); err != nil {
		t.Fatal(err)
	}
	if len(w.tops) != marksHeaderLen+3 {
		t.Fatalf("queue holds %d bytes, want the frame header and three one-byte marks", len(w.tops))
	}
	w.tops[len(w.tops)-1] = 0x7F // +63 words: past everything flushed
	err := w.Flush()
	if err == nil || !strings.Contains(err.Error(), "verify: top mark") {
		t.Fatalf("Flush of a tampered queue = %v, want a verify error", err)
	}
	if err := w.Close(); err == nil {
		t.Error("the failed stream closed cleanly")
	}
}

// runsFrame frames payload as an 'R' segment that declares decoded bytes.
func runsFrame(payload []byte, decoded uint32) []byte {
	f := []byte{frameRuns}
	f = binary.BigEndian.AppendUint32(f, uint32(len(payload)))
	f = binary.BigEndian.AppendUint32(f, decoded)
	f = binary.BigEndian.AppendUint32(f, crc32.Checksum(payload, crcTable))
	return append(f, payload...)
}

// marksFrame frames body as an 'M' frame.
func marksFrame(body ...byte) []byte {
	return append(binary.BigEndian.AppendUint32([]byte{frameMarks}, uint32(len(body))), body...)
}

// Every malformed frame of the compact wire, of the 'M' frame both wires
// share, and the 'C' and 'T' frames they retired, ends in one of the existing
// DecodeError kinds, on both receive paths, and never in a panic. Each stream
// is also a seed of the FuzzReaderDecode corpus (encoded against the fuzz
// target's classpath and registration order, like
// TestBackRefStreamInFuzzCorpus's), so mutation starts from inside the
// frames; -update-corpus rewrites the entries.
//
// One malformation cannot be written down: a delta is a count of words
// against an aligned mark, so no uvarint names an unaligned address. The
// 'M'-frame version of the top-unaligned seed therefore walks the same
// full-image segment and then names the one address a delta still gets
// wrong on it, one word below the first.
func TestMalformedCompactFrames(t *testing.T) {
	snd, newRT := fuzzTarget(t)
	yk := snd.MustLoad("Year4D")
	if yk.TID != 2 || yk.Size != 32 {
		t.Fatalf("Year4D has type ID %d and size %d; the frames below are written for 2 and 32", yk.TID, yk.Size)
	}
	hdr := []byte("SKYW\x02\x03\x00\x00")
	torn := func(frames ...[]byte) []byte { return bytes.Join(append([][]byte{hdr}, frames...), nil) }
	stream := func(frames ...[]byte) []byte { return append(torn(frames...), frameEnd) }
	// One Year4D, value 7, as a run of one; three of them as a run of three.
	one := []byte{2, 0, 7, 0, 0, 0, 0, 0, 0, 0}
	three := append([]byte{2, 2 << compactRunShift}, bytes.Repeat(one[2:], 3)...)

	valid := encodeBatch(t, New(snd), recordCorpus(t, snd, 9), WithCompactHeaders(), WithBufferSize(128))
	// The full-image wire: a stream of the same shape, and the one full-image
	// segment of a lone Date root, ready for its top marks.
	full := encodeBatch(t, New(snd), recordCorpus(t, snd, 9), WithBufferSize(128))
	fullHdr := []byte("SKYW\x02\x01\x00\x00")
	date := recordCorpus(t, snd, 3)[2]
	dateSeg := encodeBatch(t, New(snd), []heap.Addr{date})
	dateSeg = dateSeg[:len(dateSeg)-len(marksFrame(1))-1]
	then := func(frames ...[]byte) []byte {
		return append(bytes.Join(append([][]byte{dateSeg}, frames...), nil), frameEnd)
	}
	for _, tc := range []struct {
		name string
		wire []byte
		kind DecodeKind // "" when the stream decodes
	}{
		{"compact-stream", valid, ""},
		{"compact-run-of-three", stream(runsFrame(three, 96), marksFrame(1, 9, 9)), ""},
		// The deleted per-record compact segment: same header, tag 'C'.
		{"compact-retired-c-frame", stream(append([]byte{'C'}, runsFrame(one, 32)[1:]...), []byte{'T', 0, 0, 0, 0, 0, 0, 0, 8}), DecodeFrame},
		{"compact-run-longer-than-image", stream(runsFrame(three, 16), marksFrame(1)), DecodeLength},
		{"compact-run-overruns-chunk", stream(runsFrame(three, 64), marksFrame(1)), DecodeLength},
		{"compact-run-array-flag", stream(runsFrame([]byte{2, compactFlagArray, 0}, 32), marksFrame(1)), DecodeType},
		{"compact-run-unknown-class", stream(runsFrame([]byte{99, 0, 7, 0, 0, 0, 0, 0, 0, 0}, 32), marksFrame(1)), DecodeType},
		{"compact-run-truncated-payload", stream(runsFrame(three[:len(three)-3], 96), marksFrame(1)), DecodeLength},
		{"compact-mark-below-bias", stream(runsFrame(one, 32), marksFrame(2)), DecodePointer},            // −1 word from relBias
		{"compact-mark-wraps-to-null", stream(runsFrame(one, 32), marksFrame(1, 2)), DecodePointer},      // +0, then −1 word: address 0
		{"compact-mark-beyond-received", stream(runsFrame(one, 32), marksFrame(1, 9)), DecodePointer},    // +4 words: the chunk's end
		{"compact-mark-truncated-uvarint", stream(runsFrame(one, 32), marksFrame(1, 0x80)), DecodeFrame}, // the frame ends inside a delta
		{"compact-mark-frame-cut-short", torn(runsFrame(one, 32), marksFrame(1, 1, 1)[:7]), DecodeFrame}, // the stream ends inside the frame
		{"compact-mark-overlong-uvarint", stream(runsFrame(one, 32), marksFrame(bytes.Repeat([]byte{0xFF}, 11)...), marksFrame(1)), DecodeFrame},
		{"compact-mark-overflows-uvarint", stream(runsFrame(one, 32), marksFrame(append(bytes.Repeat([]byte{0xFF}, 9), 0x7F)...)), DecodeFrame},
		{"full-image-stream", full, ""},
		// The deleted 9-byte top mark: a full-image segment, then tag 'T'.
		{"retired-t-frame", then([]byte{'T', 0, 0, 0, 0, 0, 0, 0, 8}), DecodeFrame},
		{"marks-top-out-of-range", append(append(fullHdr, marksFrame(0xFF, 0xFF, 0xFF, 0xFF, 0x0F)...), frameEnd), DecodePointer},
		{"marks-top-unaligned", then(marksFrame(1, 2)), DecodePointer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "fuzz", "FuzzReaderDecode", tc.name)
			entry := []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(tc.wire)) + ")\n")
			if *updateCorpus {
				if err := os.WriteFile(path, entry, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, entry) {
				t.Errorf("corpus entry %s is stale (%v); regenerate with -update-corpus", path, err)
			}
			for _, opts := range [][]ReaderOption{nil, {WithArena()}} {
				rcv := newRT("fuzz-rcv")
				rd := NewReader(rcv, bytes.NewReader(tc.wire), opts...)
				var err error
				for err == nil {
					_, err = rd.ReadObject()
				}
				rd.Free()
				de, structured := AsDecodeError(err)
				switch {
				case tc.kind == "" && err != io.EOF:
					t.Errorf("arena=%v: %v, want a clean end of stream", opts != nil, err)
				case tc.kind != "" && (!structured || de.Kind != tc.kind):
					t.Errorf("arena=%v: %v, want a %s error", opts != nil, err, tc.kind)
				}
			}
		})
	}
}
