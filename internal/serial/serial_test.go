package serial

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/registry"
	"skyway/internal/vm"
)

func testPath() *klass.Path {
	p := klass.NewPath()
	p.MustDefine(
		&klass.ClassDef{Name: "Media", Fields: []klass.FieldDef{
			{Name: "uri", Kind: klass.Ref, Class: vm.StringClass},
			{Name: "width", Kind: klass.Int32},
			{Name: "height", Kind: klass.Int32},
			{Name: "duration", Kind: klass.Int64},
			{Name: "bitrate", Kind: klass.Int32},
		}},
		&klass.ClassDef{Name: "Wrapper", Fields: []klass.FieldDef{
			{Name: "media", Kind: klass.Ref, Class: "Media"},
			{Name: "samples", Kind: klass.Ref, Class: "long[]"},
		}},
		&klass.ClassDef{Name: "Base", Fields: []klass.FieldDef{
			{Name: "id", Kind: klass.Int64},
		}},
		&klass.ClassDef{Name: "Derived", Super: "Base", Fields: []klass.FieldDef{
			{Name: "extra", Kind: klass.Int32},
		}},
	)
	return p
}

func testPair(t *testing.T) (*vm.Runtime, *vm.Runtime) {
	t.Helper()
	cp := testPath()
	reg := registry.NewRegistry()
	snd, err := vm.NewRuntime(cp, vm.Options{Name: "snd", Registry: registry.InProc{R: reg}})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := vm.NewRuntime(cp, vm.Options{Name: "rcv", Registry: registry.InProc{R: reg}})
	if err != nil {
		t.Fatal(err)
	}
	return snd, rcv
}

func testRegistration() *Registration {
	return NewRegistration(
		"Media", "Wrapper", "Base", "Derived",
		vm.StringClass, vm.CharArrayClass, vm.HashMapClass, vm.HashMapNodeClass,
		vm.HashMapClass+"$table", // unused; keeps IDs stable if extended
		vm.HashMapNodeClass+"[]", vm.StringClass+"[]", "long[]", "int[]", vm.ObjectClass+"[]", "Wrapper[]",
	)
}

func buildMedia(t *testing.T, rt *vm.Runtime, uri string, w, h int) heap.Addr {
	t.Helper()
	mk := rt.MustLoad("Media")
	s := rt.MustNewString(uri)
	sp := rt.Pin(s)
	defer sp.Release()
	m := rt.MustNew(mk)
	rt.SetRef(m, mk.FieldByName("uri"), sp.Addr())
	rt.SetInt(m, mk.FieldByName("width"), int64(w))
	rt.SetInt(m, mk.FieldByName("height"), int64(h))
	rt.SetLong(m, mk.FieldByName("duration"), 1234567890123)
	rt.SetInt(m, mk.FieldByName("bitrate"), -256)
	return m
}

func allCodecs() []Codec {
	reg := testRegistration()
	return []Codec{
		JavaCodec(),
		KryoCodec(reg),
		KryoManualCodec(reg),
		KryoOptCodec(reg),
		ColferCodec(reg),
		ProtostuffCodec(reg),
		ProtostuffRuntimeCodec(reg),
		DatakernelCodec(reg),
		AvroGenericCodec(reg),
		ThriftCodec(reg),
		JsonLikeCodec(),
		FSTCodec(),
		SmileCodec(),
		CBORCodec(),
		WoblyCodec(reg),
	}
}

func TestAllCodecsRoundTripMedia(t *testing.T) {
	for _, c := range allCodecs() {
		t.Run(c.Name(), func(t *testing.T) {
			snd, rcv := testPair(t)
			m := buildMedia(t, snd, "http://example/video.mkv", 1920, 1080)

			var buf bytes.Buffer
			enc := c.NewEncoder(snd, &buf)
			if err := enc.Write(m); err != nil {
				t.Fatal(err)
			}
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Error("Flush left the buffer empty")
			}

			dec := c.NewDecoder(rcv, &buf)
			got, err := dec.Read()
			if err != nil {
				t.Fatal(err)
			}
			mk := rcv.MustLoad("Media")
			if rcv.GetInt(got, mk.FieldByName("width")) != 1920 ||
				rcv.GetInt(got, mk.FieldByName("height")) != 1080 {
				t.Error("dimensions corrupted")
			}
			if rcv.GetLong(got, mk.FieldByName("duration")) != 1234567890123 {
				t.Error("long corrupted")
			}
			if rcv.GetInt(got, mk.FieldByName("bitrate")) != -256 {
				t.Error("negative int corrupted")
			}
			uri := rcv.GetRef(got, mk.FieldByName("uri"))
			if rcv.GoString(uri) != "http://example/video.mkv" {
				t.Error("string corrupted")
			}
			if _, err := dec.Read(); err != io.EOF {
				t.Errorf("want EOF, got %v", err)
			}
		})
	}
}

func TestAllCodecsSharedAndArrays(t *testing.T) {
	for _, c := range allCodecs() {
		t.Run(c.Name(), func(t *testing.T) {
			snd, rcv := testPair(t)
			wk := snd.MustLoad("Wrapper")

			m := buildMedia(t, snd, "u", 1, 2)
			mp := snd.Pin(m)
			arrK := snd.MustLoad("long[]")
			arr := snd.MustNewArray(arrK, 9)
			for i := 0; i < 9; i++ {
				snd.ArraySetLong(arr, i, int64(i)*-3)
			}
			ap := snd.Pin(arr)
			w1 := snd.MustNew(wk)
			w1p := snd.Pin(w1)
			w2 := snd.MustNew(wk)
			w1 = w1p.Addr()
			snd.SetRef(w1, wk.FieldByName("media"), mp.Addr())
			snd.SetRef(w1, wk.FieldByName("samples"), ap.Addr())
			snd.SetRef(w2, wk.FieldByName("media"), mp.Addr())
			snd.SetRef(w2, wk.FieldByName("samples"), ap.Addr())

			// One root graph sharing m and arr through two wrappers.
			pk := wk // reuse Wrapper as a pair-ish root via array
			_ = pk
			rootK := snd.MustLoad("Wrapper[]")
			root := snd.MustNewArray(rootK, 2)
			snd.ArraySetRef(root, 0, w1p.Addr())
			snd.ArraySetRef(root, 1, w2)

			var buf bytes.Buffer
			enc := c.NewEncoder(snd, &buf)
			if err := enc.Write(root); err != nil {
				// Wrapper[] may be unregistered for ID codecs.
				t.Fatalf("write: %v", err)
			}
			enc.Flush()

			dec := c.NewDecoder(rcv, &buf)
			got, err := dec.Read()
			if err != nil {
				t.Fatal(err)
			}
			rwk := rcv.MustLoad("Wrapper")
			g1 := rcv.ArrayGetRef(got, 0)
			g2 := rcv.ArrayGetRef(got, 1)
			if rcv.GetRef(g1, rwk.FieldByName("media")) != rcv.GetRef(g2, rwk.FieldByName("media")) {
				t.Error("shared media duplicated within a root graph")
			}
			garr := rcv.GetRef(g1, rwk.FieldByName("samples"))
			for i := 0; i < 9; i++ {
				if rcv.ArrayGetLong(garr, i) != int64(i)*-3 {
					t.Fatalf("array elem %d corrupted", i)
				}
			}
			mp.Release()
			ap.Release()
			w1p.Release()
		})
	}
}

func TestAllCodecsInheritance(t *testing.T) {
	for _, c := range allCodecs() {
		t.Run(c.Name(), func(t *testing.T) {
			snd, rcv := testPair(t)
			dk := snd.MustLoad("Derived")
			d := snd.MustNew(dk)
			snd.SetLong(d, dk.FieldByName("id"), 99)
			snd.SetInt(d, dk.FieldByName("extra"), -7)

			var buf bytes.Buffer
			enc := c.NewEncoder(snd, &buf)
			if err := enc.Write(d); err != nil {
				t.Fatal(err)
			}
			enc.Flush()
			got, err := c.NewDecoder(rcv, &buf).Read()
			if err != nil {
				t.Fatal(err)
			}
			rdk := rcv.MustLoad("Derived")
			if rcv.GetLong(got, rdk.FieldByName("id")) != 99 || rcv.GetInt(got, rdk.FieldByName("extra")) != -7 {
				t.Error("inherited/own fields corrupted")
			}
		})
	}
}

func TestUnregisteredClassFails(t *testing.T) {
	snd, _ := testPair(t)
	reg := NewRegistration("Media") // String deliberately missing
	c := KryoCodec(reg)
	m := buildMedia(t, snd, "u", 1, 1)
	enc := c.NewEncoder(snd, io.Discard)
	if err := enc.Write(m); err == nil {
		t.Error("serializing an unregistered class succeeded")
	}
}

func TestNullRoot(t *testing.T) {
	for _, c := range allCodecs() {
		snd, rcv := testPair(t)
		var buf bytes.Buffer
		enc := c.NewEncoder(snd, &buf)
		if err := enc.Write(heap.Null); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		enc.Flush()
		got, err := c.NewDecoder(rcv, &buf).Read()
		if err != nil || got != heap.Null {
			t.Errorf("%s: null round trip = %v, %v", c.Name(), got, err)
		}
	}
}

func TestJavaDescriptorBytesDominateSmallObjects(t *testing.T) {
	// §2.2: a tiny object under the Java serializer drags whole class
	// descriptors onto the wire; registered-ID codecs don't.
	snd, _ := testPair(t)
	reg := testRegistration()
	m := buildMedia(t, snd, "u", 1, 1)

	measure := func(c Codec) int64 {
		var buf bytes.Buffer
		enc := c.NewEncoder(snd, &buf)
		if err := enc.Write(m); err != nil {
			t.Fatal(err)
		}
		enc.Flush()
		return int64(buf.Len())
	}
	javaBytes := measure(JavaCodec())
	kryoBytes := measure(KryoCodec(reg))
	if javaBytes <= kryoBytes {
		t.Errorf("java bytes (%d) not larger than kryo bytes (%d)", javaBytes, kryoBytes)
	}
}

func TestHashMapRehashOnRead(t *testing.T) {
	snd, rcv := testPair(t)
	reg := testRegistration()
	c := KryoCodec(reg)

	m, err := snd.NewHashMap(16)
	if err != nil {
		t.Fatal(err)
	}
	mp := snd.Pin(m)
	defer mp.Release()
	for i := 0; i < 40; i++ {
		k := snd.MustNewString("k")
		kp := snd.Pin(k)
		v := snd.MustNewString("v")
		vp := snd.Pin(v)
		if err := snd.HashMapPut(mp.Addr(), kp.Addr(), vp.Addr()); err != nil {
			t.Fatal(err)
		}
		kp.Release()
		vp.Release()
	}

	var buf bytes.Buffer
	enc := c.NewEncoder(snd, &buf)
	if err := enc.Write(mp.Addr()); err != nil {
		t.Fatal(err)
	}
	enc.Flush()
	got, err := c.NewDecoder(rcv, &buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	if rcv.HashMapLen(got) != 40 {
		t.Fatalf("map len = %d", rcv.HashMapLen(got))
	}
	// After the decoder's rehash the bucket layout must match the fresh
	// identity hashes on the receiving runtime.
	if !rcv.HashMapValid(got) {
		t.Error("map not rehashed on read")
	}
}

// Property: primitive values of every width round-trip through every codec.
func TestPrimitiveWidthsQuick(t *testing.T) {
	snd, rcv := testPair(t)
	mk := snd.MustLoad("Media")
	codecs := allCodecs()
	f := func(w, h, bit int32, dur int64, sel uint8) bool {
		c := codecs[int(sel)%len(codecs)]
		m := buildMedia(t, snd, "q", 0, 0)
		snd.SetInt(m, mk.FieldByName("width"), int64(w))
		snd.SetInt(m, mk.FieldByName("height"), int64(h))
		snd.SetInt(m, mk.FieldByName("bitrate"), int64(bit))
		snd.SetLong(m, mk.FieldByName("duration"), dur)
		var buf bytes.Buffer
		enc := c.NewEncoder(snd, &buf)
		if err := enc.Write(m); err != nil {
			return false
		}
		enc.Flush()
		got, err := c.NewDecoder(rcv, &buf).Read()
		if err != nil {
			return false
		}
		rmk := rcv.MustLoad("Media")
		return rcv.GetInt(got, rmk.FieldByName("width")) == int64(w) &&
			rcv.GetInt(got, rmk.FieldByName("height")) == int64(h) &&
			rcv.GetInt(got, rmk.FieldByName("bitrate")) == int64(bit) &&
			rcv.GetLong(got, rmk.FieldByName("duration")) == dur
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSkywayCodecAdapter(t *testing.T) {
	snd, rcv := testPair(t)
	c := NewSkywayCodec(snd, rcv)
	m := buildMedia(t, snd, "adapter", 640, 480)

	var buf bytes.Buffer
	enc := c.NewEncoder(snd, &buf)
	if err := enc.Write(m); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := c.NewDecoder(rcv, &buf)
	got, err := dec.Read()
	if err != nil {
		t.Fatal(err)
	}
	mk := rcv.MustLoad("Media")
	if rcv.GetInt(got, mk.FieldByName("width")) != 640 {
		t.Error("adapter round trip corrupted data")
	}
	if _, err := dec.Read(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
	snd.ShuffleStart()
	if c.ServiceFor(snd).Phase() != 2 {
		t.Error("the codec's service does not see the runtime's phase")
	}
}

// Two Skyway codecs over one sender runtime (a job and a broadcast do this)
// write the same record in the same phase: the runtime, not
// the codec, hands out stream IDs, so neither stream mistakes the other's
// baddr claims for its own and both carry the whole graph.
func TestTwoSkywayCodecsShareOneSender(t *testing.T) {
	snd, rcv := testPair(t)
	mp := snd.Pin(buildMedia(t, snd, "shared", 320, 200))
	defer mp.Release()
	mk := rcv.MustLoad("Media")
	for _, name := range []string{"skyway", "skyway-arena"} {
		c, err := ByName(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		enc := c.NewEncoder(snd, &buf)
		if err := enc.Write(mp.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := c.NewDecoder(rcv, &buf).Read()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w := rcv.GetInt(got, mk.FieldByName("width")); w != 320 {
			t.Errorf("%s: width = %d, want 320", name, w)
		}
		if uri := rcv.GoString(rcv.GetRef(got, mk.FieldByName("uri"))); uri != "shared" {
			t.Errorf("%s: uri = %q, want %q", name, uri, "shared")
		}
	}
}

func TestTransientFieldSemantics(t *testing.T) {
	// Java semantics: conventional serializers skip transient fields (the
	// receiver sees the zero value); Skyway's whole-object copy ships them.
	cp := klass.NewPath()
	cp.MustDefine(&klass.ClassDef{Name: "Conn", Fields: []klass.FieldDef{
		{Name: "id", Kind: klass.Int64},
		{Name: "fd", Kind: klass.Int64, Transient: true},
	}})
	reg := registry.NewRegistry()
	snd, err := vm.NewRuntime(cp, vm.Options{Name: "ts", Registry: registry.InProc{R: reg}})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := vm.NewRuntime(cp, vm.Options{Name: "tr", Registry: registry.InProc{R: reg}})
	if err != nil {
		t.Fatal(err)
	}
	ck := snd.MustLoad("Conn")
	obj := snd.MustNew(ck)
	snd.SetLong(obj, ck.FieldByName("id"), 7)
	snd.SetLong(obj, ck.FieldByName("fd"), 42)
	oh := snd.Pin(obj)
	defer oh.Release()

	codecs := map[string]Codec{
		"java":   JavaCodec(),
		"kryo":   KryoCodec(NewRegistration("Conn")),
		"skyway": NewSkywayCodec(snd, rcv),
	}
	for name, c := range codecs {
		var buf bytes.Buffer
		enc := c.NewEncoder(snd, &buf)
		if err := enc.Write(oh.Addr()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		enc.Flush()
		got, err := c.NewDecoder(rcv, &buf).Read()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rck := rcv.MustLoad("Conn")
		if rcv.GetLong(got, rck.FieldByName("id")) != 7 {
			t.Errorf("%s: persistent field lost", name)
		}
		fd := rcv.GetLong(got, rck.FieldByName("fd"))
		if name == "skyway" {
			if fd != 42 {
				t.Errorf("skyway did not ship the transient field (whole-object copy): fd=%d", fd)
			}
		} else if fd != 0 {
			t.Errorf("%s serialized a transient field: fd=%d", name, fd)
		}
	}
}
