package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"skyway/internal/gc"
	"skyway/internal/heap"
	"skyway/internal/vm"
)

// bigElems is the length of the long[] these tests send: a 1 MiB payload,
// bigger than a whole default output buffer.
const bigElems = 128 << 10

// bodies names the two segment bodies, with the writer options of each.
var bodies = []struct {
	name string
	opts []WriterOption
}{
	{"standard", nil},
	{"compact", []WriterOption{WithCompactHeaders()}},
}

// bigArray pins a long[] of bigElems elements drawn from rng and returns its
// handle with a copy of its elements. A few of them fill the young
// generation, so a caller that allocates more takes the array's address from
// the handle after its last allocation.
func bigArray(t testing.TB, rt *vm.Runtime, rng *rand.Rand) (*gc.Handle, []int64) {
	t.Helper()
	vals := make([]int64, bigElems)
	for i := range vals {
		vals[i] = rng.Int63()
	}
	a := rt.MustNewArray(rt.MustLoad("long[]"), bigElems)
	rt.ArrayPutLongs(a, vals)
	h := rt.Pin(a)
	t.Cleanup(h.Release)
	return h, vals
}

// streamSum is the hex SHA-256 of a stream's bytes.
func streamSum(wire []byte) string {
	sum := sha256.Sum256(wire)
	return hex.EncodeToString(sum[:])
}

// encodeRoots writes roots through a fresh writer and returns the stream.
func encodeRoots(t *testing.T, sky *Skyway, roots []heap.Addr, opts ...WriterOption) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := sky.NewWriter(&buf, opts...)
	if err := w.WriteObjects(roots); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A stream of ref-free objects bigger than an output buffer has the bytes it
// had when every object was copied into the buffer first: each object alone
// in its segment, each segment followed by the top marks queued behind it.
// Eight 1 MiB long[] roots, a back-reference to the fourth and a null root,
// through a fresh default writer.
func TestBigArrayStreamBytesPinned(t *testing.T) {
	want := map[string]string{
		"standard": "e7d378e4e1818269d6c5cbb35f02f4bde67527235a9133bae349d26706ff8e00",
		"compact":  "bcc4fd7c4088fd09cba72d95a781657799d35879366bdc32ed609053fcc552fc",
	}
	for _, body := range bodies {
		t.Run(body.name, func(t *testing.T) {
			snd, _, sky := testCluster(t)
			rng := rand.New(rand.NewSource(38))
			arrays := make([]*gc.Handle, 8)
			for i := range arrays {
				arrays[i], _ = bigArray(t, snd, rng)
			}
			var roots []heap.Addr
			for _, h := range arrays {
				roots = append(roots, h.Addr())
			}
			roots = append(roots, roots[3], heap.Null)
			if got := streamSum(encodeRoots(t, sky, roots, body.opts...)); got != want[body.name] {
				t.Errorf("stream SHA-256 = %s, want %s: the bytes of a stream of big ref-free objects changed", got, want[body.name])
			}
		})
	}
}

// The one segmentation difference sending from the heap makes: a fresh
// writer used to grow its buffer's limit to the big object's size and let the
// objects after it join its segment; now the big object's segment holds it
// alone. A record, a 1 MiB long[] and a record: three segments, where the
// copy path gave one.
func TestBigArraySegmentationPinned(t *testing.T) {
	want := map[string]string{
		"standard": "d898a0b34423d4c2f4d6a137f6dd0aaa77eae1dfe74e83af8cf5be2efd1a1801",
		"compact":  "74153895dbdbac242f4485f2371efaff3c0e4e9cf2b23511c733b26eeecbd790",
	}
	for _, body := range bodies {
		t.Run(body.name, func(t *testing.T) {
			snd, _, sky := testCluster(t)
			big, _ := bigArray(t, snd, rand.New(rand.NewSource(38)))
			recs := recordCorpus(t, snd, 2)
			wire := encodeRoots(t, sky, []heap.Addr{recs[0], big.Addr(), recs[1]}, body.opts...)
			if n := len(wireFrames(t, wire)); n != 3 {
				t.Errorf("%d segments, want 3: the big array's segment must hold it alone", n)
			}
			if got := streamSum(wire); got != want[body.name] {
				t.Errorf("stream SHA-256 = %s, want %s: the records around a big ref-free object must not join its segment", got, want[body.name])
			}
		})
	}
}

// segmentEnd returns where the segment frame at off ends.
func segmentEnd(wire []byte, off int) int {
	hn := 9
	if wire[off] == frameRuns {
		hn = 13
	}
	return off + hn + int(binary.BigEndian.Uint32(wire[off+1:]))
}

// When WriteObject of a big ref-free object returns, its whole segment is in
// the sink, and the output buffer never grew to hold it.
func TestBigArrayLeavesBeforeReturn(t *testing.T) {
	for _, body := range bodies {
		t.Run(body.name, func(t *testing.T) {
			snd, _, sky := testCluster(t)
			big, _ := bigArray(t, snd, rand.New(rand.NewSource(1)))
			var buf bytes.Buffer
			w := sky.NewWriter(&buf, body.opts...)
			defer w.Close()
			if err := w.WriteObject(big.Addr()); err != nil {
				t.Fatal(err)
			}
			wire := buf.Bytes()
			segs := wireFrames(t, wire)
			if len(segs) != 1 || segmentEnd(wire, segs[0]) != len(wire) {
				t.Fatalf("sink holds %d bytes in %d segment(s) after WriteObject returned, want the array's whole segment", len(wire), len(segs))
			}
			if n := binary.BigEndian.Uint32(wire[segs[0]+1:]); n < bigElems*8 {
				t.Errorf("segment of %d bytes, want the whole %d-byte payload", n, bigElems*8)
			}
			if c := cap(w.buf); c > DefaultBufferSize {
				t.Errorf("output buffer grew to %d bytes, want at most %d", c, DefaultBufferSize)
			}
		})
	}
}

// An array changed after WriteObject returned arrives with the values it
// had at the call, as it did when the call copied it.
func TestBigArrayArrivesAsOfTheCall(t *testing.T) {
	for _, body := range bodies {
		t.Run(body.name, func(t *testing.T) {
			snd, rcv, sky := testCluster(t)
			big, want := bigArray(t, snd, rand.New(rand.NewSource(2)))
			var buf bytes.Buffer
			w := sky.NewWriter(&buf, body.opts...)
			if err := w.WriteObject(big.Addr()); err != nil {
				t.Fatal(err)
			}
			changed := make([]int64, bigElems)
			for i := range changed {
				changed[i] = -want[i]
			}
			snd.ArrayPutLongs(big.Addr(), changed)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			rd := NewReader(rcv, &buf)
			defer rd.Free()
			got, err := rd.ReadObject()
			if err != nil {
				t.Fatal(err)
			}
			checkLongs(t, rcv, got, want)
		})
	}
}

// checkLongs fails t unless the long[] at a holds want.
func checkLongs(t *testing.T, rt *vm.Runtime, a heap.Addr, want []int64) {
	t.Helper()
	got := rt.ArrayLongs(a, nil)
	if len(got) != len(want) {
		t.Fatalf("array of %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// Big arrays sent from the heap among records that go through the buffer —
// back-references to both, and a null root — decode alike on an eager and
// an arena reader, on both bodies.
func TestBigArrayStreamDecodesEagerAndArena(t *testing.T) {
	for _, body := range bodies {
		snd, rcv, sky := testCluster(t)
		rng := rand.New(rand.NewSource(3))
		a, aVals := bigArray(t, snd, rng)
		b, bVals := bigArray(t, snd, rng)
		recs := recordCorpus(t, snd, 4)
		roots := []heap.Addr{recs[0], a.Addr(), recs[1], recs[2], b.Addr(), a.Addr(), recs[3], heap.Null, recs[1]}
		arrays := map[int][]int64{1: aVals, 4: bVals, 5: aVals}
		wire := encodeRoots(t, sky, roots, body.opts...)
		for _, arena := range []bool{false, true} {
			var ropts []ReaderOption
			name := body.name + "/eager"
			if arena {
				ropts, name = []ReaderOption{WithArena()}, body.name+"/arena"
			}
			t.Run(name, func(t *testing.T) {
				rd := NewReader(rcv, bytes.NewReader(wire), ropts...)
				defer rd.Free()
				got, err := rd.ReadAll()
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(roots) {
					t.Fatalf("decoded %d roots, want %d", len(got), len(roots))
				}
				for i, root := range roots {
					switch vals, isArray := arrays[i]; {
					case root == heap.Null:
						if got[i] != heap.Null {
							t.Errorf("root %d is not null", i)
						}
					case isArray:
						checkLongs(t, rcv, got[i], vals)
					default:
						if f, want := recordFold(rcv, got[i]), recordFold(snd, root); f != want {
							t.Errorf("root %d folds to %d, want %d", i, f, want)
						}
					}
				}
			})
		}
	}
}
