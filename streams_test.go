package skyway_test

import (
	"net"
	"os"
	"path/filepath"
	"testing"

	"skyway"
)

// Tests for the §3.3 file/socket stream conveniences.

// TestFileStreams writes ten Points through NewFileWriter, which puts them
// on the compact wire, and the same Points as full images through
// Service.NewWriter into a second file; NewFileReader reads both back.
func TestFileStreams(t *testing.T) {
	cp := pointPath()
	reg := skyway.NewInProcRegistry()
	snd, err := skyway.NewRuntime(cp, skyway.RuntimeOptions{Name: "fs", Registry: reg.Client()})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := skyway.NewRuntime(cp, skyway.RuntimeOptions{Name: "fr", Registry: reg.Client()})
	if err != nil {
		t.Fatal(err)
	}

	k := snd.MustLoad("Point")
	var roots []skyway.Addr
	for i := 0; i < 10; i++ {
		p := snd.MustNew(k)
		snd.SetInt(p, k.FieldByName("x"), int64(i))
		h := snd.Pin(p)
		defer h.Release()
		roots = append(roots, h.Addr())
	}
	write := func(w *skyway.Writer) {
		t.Helper()
		for _, p := range roots {
			if err := w.WriteObject(p); err != nil {
				t.Fatal(err)
			}
		}
	}

	dir := t.TempDir()
	runs := filepath.Join(dir, "shuffle-0.skyway")
	svc := skyway.NewService(snd)
	w, err := skyway.NewFileWriter(svc, runs)
	if err != nil {
		t.Fatal(err)
	}
	write(w.Writer)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The same roots again, as full images: a new shuffle phase, so the
	// second stream copies them rather than claiming them through the
	// first stream's baddr words.
	images := filepath.Join(dir, "shuffle-0.images")
	snd.ShuffleStart()
	f, err := os.Create(images)
	if err != nil {
		t.Fatal(err)
	}
	fw := svc.NewWriter(f)
	write(fw)
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	runBytes, err := os.ReadFile(runs)
	if err != nil {
		t.Fatal(err)
	}
	imageBytes, err := os.ReadFile(images)
	if err != nil {
		t.Fatal(err)
	}
	// Stream header "SKYW" ver flags streamID: flags bit 1 marks the
	// compact wire, and the first frame behind the header is a run segment.
	if len(runBytes) < 9 || runBytes[5]&(1<<1) == 0 || runBytes[8] != 'R' {
		t.Fatalf("NewFileWriter's stream opens % x, want the compact flag and an 'R' frame", runBytes[:min(len(runBytes), 9)])
	}
	if len(imageBytes) <= len(runBytes) {
		t.Fatalf("full-image file is %d bytes, compact file %d; want it larger", len(imageBytes), len(runBytes))
	}

	rk := rcv.MustLoad("Point")
	for _, path := range []string{runs, images} {
		r, err := skyway.NewFileReader(rcv, path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadAll()
		r.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(got) != len(roots) {
			t.Fatalf("%s: read %d roots, want %d", path, len(got), len(roots))
		}
		for i, g := range got {
			if rcv.GetInt(g, rk.FieldByName("x")) != int64(i) {
				t.Fatalf("%s: root %d corrupted", path, i)
			}
		}
	}
}

func TestSocketStreams(t *testing.T) {
	cp := pointPath()
	reg := skyway.NewInProcRegistry()
	snd, err := skyway.NewRuntime(cp, skyway.RuntimeOptions{Name: "ss", Registry: reg.Client()})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := skyway.NewRuntime(cp, skyway.RuntimeOptions{Name: "sr", Registry: reg.Client()})
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type result struct {
		x   int64
		err error
	}
	done := make(chan result, 1)
	go func() {
		r, conn, err := skyway.AcceptReader(rcv, ln)
		if err != nil {
			done <- result{err: err}
			return
		}
		defer conn.Close()
		got, err := r.ReadObject()
		if err != nil {
			done <- result{err: err}
			return
		}
		k := rcv.MustLoad("Point")
		done <- result{x: rcv.GetInt(got, k.FieldByName("x"))}
	}()

	svc := skyway.NewService(snd)
	w, err := skyway.DialWriter(svc, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	k := snd.MustLoad("Point")
	p := snd.MustNew(k)
	snd.SetInt(p, k.FieldByName("x"), 4711)
	if err := w.WriteObject(p); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.x != 4711 {
		t.Fatalf("received x = %d", res.x)
	}
}
