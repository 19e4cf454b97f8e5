package serial

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"skyway/internal/core"
	"skyway/internal/heap"
	"skyway/internal/vm"
)

var updateGolden = flag.Bool("update", false, "rewrite golden wire vectors")

// Golden wire vectors pin the on-the-wire encoding of the codecs the
// benchmarks compare — including Skyway's versioned format (v2 with per-
// frame CRC-32C). Any intentional format change must update the vectors
// (go test ./internal/serial -run Golden -update). A change that only
// retires a tag keeps the version, because the old frame fails loudly as an
// unknown tag; any other change bumps it. An accidental change fails here
// byte for byte.

// fullImageCodec is the library's default wire — the paper's full object
// images, what core.Skyway.NewWriter and skyway.DialWriter write and
// skyway.bin pins — behind the Codec interface the golden tests drive.
// SkywayCodec itself writes the compact wire, pinned by skyway-compact.bin.
type fullImageCodec struct{ *SkywayCodec }

func (fullImageCodec) NewEncoder(rt *vm.Runtime, w io.Writer) Encoder {
	return &skywayEncoder{w: core.New(rt).NewWriter(w)}
}

// skywayWires are the two Skyway golden vectors, by file name.
var skywayWires = map[string]Codec{
	"skyway":         fullImageCodec{NewSkywayCodec()},
	"skyway-compact": NewSkywayCodec(),
}

// goldenGraph builds the pinned object graph: two Media objects sharing a
// deterministic structure, the second written twice to exercise stream
// back-references.
func goldenGraph(t *testing.T, rt *vm.Runtime) []heap.Addr {
	t.Helper()
	a := rt.Pin(buildMedia(t, rt, "skyway://golden/a.mkv", 1920, 1080))
	t.Cleanup(a.Release)
	b := rt.Pin(buildMedia(t, rt, "skyway://golden/b.webm", 640, 480))
	t.Cleanup(b.Release)
	return []heap.Addr{a.Addr(), b.Addr(), b.Addr()}
}

func goldenEncode(t *testing.T, c Codec, snd *vm.Runtime) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := c.NewEncoder(snd, &buf)
	for _, root := range goldenGraph(t, snd) {
		if err := enc.Write(root); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkGoldenDecode decodes the checked-in bytes (not the freshly encoded
// ones) and verifies the graph, proving current readers accept the pinned
// format.
func checkGoldenDecode(t *testing.T, c Codec, rcv *vm.Runtime, wire []byte) {
	t.Helper()
	dec := c.NewDecoder(rcv, bytes.NewReader(wire))
	mk := rcv.MustLoad("Media")
	uris := []string{"skyway://golden/a.mkv", "skyway://golden/b.webm", "skyway://golden/b.webm"}
	widths := []int64{1920, 640, 640}
	for i, wantURI := range uris {
		got, err := dec.Read()
		if err != nil {
			t.Fatalf("decoding golden root %d: %v", i, err)
		}
		if rcv.KlassOf(got) != mk {
			t.Fatalf("root %d decoded as %s", i, rcv.KlassOf(got).Name)
		}
		if s := rcv.GoString(rcv.GetRef(got, mk.FieldByName("uri"))); s != wantURI {
			t.Fatalf("root %d uri = %q, want %q", i, s, wantURI)
		}
		if w := rcv.GetInt(got, mk.FieldByName("width")); w != widths[i] {
			t.Fatalf("root %d width = %d, want %d", i, w, widths[i])
		}
		if d := rcv.GetLong(got, mk.FieldByName("duration")); d != 1234567890123 {
			t.Fatalf("root %d duration = %d", i, d)
		}
	}
	if _, err := dec.Read(); err != io.EOF {
		t.Fatalf("after golden roots: %v, want EOF", err)
	}
}

func TestGoldenWireVectors(t *testing.T) {
	reg := testRegistration()
	cases := []struct {
		name  string
		codec func(snd, rcv *vm.Runtime) Codec
	}{
		{"java", func(_, _ *vm.Runtime) Codec { return JavaCodec() }},
		{"kryo", func(_, _ *vm.Runtime) Codec { return KryoCodec(reg) }},
		{"skyway", func(_, _ *vm.Runtime) Codec { return skywayWires["skyway"] }},
		{"skyway-compact", func(_, _ *vm.Runtime) Codec { return skywayWires["skyway-compact"] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snd, rcv := testPair(t)
			c := tc.codec(snd, rcv)
			wire := goldenEncode(t, c, snd)
			path := filepath.Join("testdata", "golden", tc.name+".bin")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, wire, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(wire, want) {
				t.Fatalf("%s encoding drifted from golden vector: %s",
					tc.name, diffBytes(want, wire))
			}
			checkGoldenDecode(t, c, rcv, want)
		})
	}
}

// diffBytes reports the first divergence between two wire images.
func diffBytes(want, got []byte) string {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			return fmt.Sprintf("lengths %d/%d, first differing byte at offset %#x: %#02x != %#02x",
				len(want), len(got), i, got[i], want[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d bytes, golden has %d", len(got), len(want))
}

// writeCounter collects a stream and counts the Write calls that carried it.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// A Skyway stream reaches its destination in a number of writes fixed by its
// segments, not its roots: the golden graph — one segment, three roots — is
// the stream header, the segment's header and payload, its 'M' frame of three
// top marks as one write, and the end frame. The concatenation is the golden
// vector.
func TestGoldenSkywayStreamWrites(t *testing.T) {
	for _, name := range []string{"skyway", "skyway-compact"} {
		t.Run(name, func(t *testing.T) {
			snd, _ := testPair(t)
			c := skywayWires[name]
			var sink writeCounter
			enc := c.NewEncoder(snd, &sink)
			for _, root := range goldenGraph(t, snd) {
				if err := enc.Write(root); err != nil {
					t.Fatal(err)
				}
			}
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".bin"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sink.Bytes(), want) {
				t.Fatalf("%s encoding drifted from golden vector: %s", name, diffBytes(want, sink.Bytes()))
			}
			if sink.writes != 5 {
				t.Errorf("%s stream took %d writes, want 5", name, sink.writes)
			}
		})
	}
}

// WriteBatch is the Write loop: under every golden codec the golden roots —
// a null among them — written as one batch are the golden vector (plus the
// null's encoding), and the batch is refused, not dereferenced, when one of
// its roots is not an object.
func TestWriteBatchMatchesWriteLoop(t *testing.T) {
	reg := testRegistration()
	codecs := map[string]Codec{"java": JavaCodec(), "kryo": KryoCodec(reg)}
	for name, c := range skywayWires {
		codecs[name] = c
	}
	for name, c := range codecs {
		snd, _ := testPair(t)
		roots := append(goldenGraph(t, snd), heap.Null)
		var loop, batch bytes.Buffer
		enc := c.NewEncoder(snd, &loop)
		for _, root := range roots {
			if err := enc.Write(root); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		snd.ShuffleStart()
		enc = c.NewEncoder(snd, &batch)
		if err := enc.WriteBatch(roots); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		// A Skyway stream's header carries its stream ID.
		if !bytes.Equal(loop.Bytes()[8:], batch.Bytes()[8:]) {
			t.Errorf("%s: WriteBatch differs from the Write loop: %s", name, diffBytes(loop.Bytes(), batch.Bytes()))
		}
	}

	snd, _ := testPair(t)
	roots := goldenGraph(t, snd)
	stray := snd.Pin(snd.MustNewArray(snd.MustLoad("long[]"), 4))
	defer stray.Release()
	snd.Heap.SetKlassWord(stray.Addr(), 0xDEAD)
	var sink bytes.Buffer
	if err := KryoCodec(reg).NewEncoder(snd, &sink).WriteBatch(append(roots, stray.Addr())); err == nil {
		t.Error("a batch holding a root with klass word 0xDEAD was serialized")
	}
	snd.Heap.SetKlassWord(stray.Addr(), uint64(snd.MustLoad("long[]").LID))
}
