package skyway_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benchmarks for the design choices DESIGN.md calls out. The
// benchmarks drive the same harnesses as the cmd/ binaries; run
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for paper-vs-measured notes.

import (
	"bytes"
	"fmt"
	"testing"

	"skyway"
	"skyway/internal/batch"
	"skyway/internal/core"
	"skyway/internal/datagen"
	"skyway/internal/experiments"
	"skyway/internal/klass"
	"skyway/internal/netsim"
	"skyway/internal/registry"
	"skyway/internal/serial"
	"skyway/internal/vm"
)

// --- Figure 7 ---------------------------------------------------------------

// BenchmarkFig7JSBS reports per-library S/D+network time on the JSBS media
// workload. One benchmark iteration is a full 12-library comparison; the
// per-library results are attached as metrics.
func BenchmarkFig7JSBS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunJSBS(1500, netsim.Paper1GbE())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range results {
				b.ReportMetric(float64(r.Ser.Microseconds()), r.Lib+"-ser-µs")
				b.ReportMetric(float64(r.Deser.Microseconds()), r.Lib+"-deser-µs")
			}
		}
	}
}

// --- Figure 3 ---------------------------------------------------------------

// BenchmarkFig3Breakdown runs the §2.2 motivation experiment: TC over the
// LiveJournal-shaped graph under Kryo and the Java serializer.
func BenchmarkFig3Breakdown(b *testing.B) {
	cfg := experiments.DefaultSparkConfig()
	cfg.GraphScale = 0.05
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range res {
				b.ReportMetric(r.Breakdown.SDShare()*100, r.Serializer+"-sd-share-%")
			}
		}
	}
}

// --- Figure 8(a) / Table 2 ----------------------------------------------------

// benchSparkCell benchmarks one (app, serializer) cell over the
// LiveJournal-shaped graph, reporting the measured S/D microseconds per
// shuffled record.
func benchSparkCell(b *testing.B, app experiments.SparkApp, ser string) {
	cfg := experiments.DefaultSparkConfig()
	cfg.GraphScale = 0.05
	spec, err := datagen.GraphByName("LiveJournal", cfg.GraphScale)
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd, _, _, err := experiments.SparkRun(app, g, ser, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && bd.Records > 0 {
			b.ReportMetric(float64((bd.Ser+bd.Deser).Microseconds())/float64(bd.Records)*1000, "sd-ns/record")
			b.ReportMetric(float64(bd.ShuffleBytes)/float64(bd.Records), "bytes/record")
		}
	}
}

// BenchmarkFig8aSpark covers the Figure 8(a) matrix (LiveJournal-shaped
// graph; the other graphs differ only in scale and skew).
func BenchmarkFig8aSpark(b *testing.B) {
	for _, app := range experiments.SparkApps() {
		for _, ser := range experiments.SparkSerializers() {
			b.Run(fmt.Sprintf("%s/%s", app, ser), func(b *testing.B) {
				benchSparkCell(b, app, ser)
			})
		}
	}
}

// BenchmarkTable2Summary produces the Table 2 normalized summary in one
// iteration (all apps, one graph, three serializers).
func BenchmarkTable2Summary(b *testing.B) {
	cfg := experiments.DefaultSparkConfig()
	cfg.GraphScale = 0.05
	graphs := []datagen.GraphSpec{mustGraph(b, "LiveJournal", cfg.GraphScale)}
	for i := 0; i < b.N; i++ {
		cells, err := experiments.RunSparkMatrix(cfg, graphs, experiments.SparkApps())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("Table 2 kryo:   %s", experiments.Table2(cells)["kryo"].Row())
			b.Logf("Table 2 skyway: %s", experiments.Table2(cells)["skyway"].Row())
		}
	}
}

func mustGraph(b *testing.B, name string, scale float64) datagen.GraphSpec {
	b.Helper()
	spec, err := datagen.GraphByName(name, scale)
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

// --- Table 1 -----------------------------------------------------------------

// BenchmarkTable1GraphGen measures generation of the four Table 1 datasets.
func BenchmarkTable1GraphGen(b *testing.B) {
	for _, spec := range datagen.PaperGraphs(0.05) {
		b.Run(spec.Name, func(b *testing.B) {
			var edges int
			for i := 0; i < b.N; i++ {
				g := spec.Generate()
				edges = g.M
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// --- Figure 8(b) / Tables 3-4 ---------------------------------------------------

// BenchmarkFig8bFlink covers the Figure 8(b) matrix: QA-QE under the
// built-in tuple serializers and Skyway.
func BenchmarkFig8bFlink(b *testing.B) {
	gen := datagen.GenTPCH(0.3, 2024)
	cfg := experiments.DefaultFlinkConfig()
	for _, q := range batch.AllQueries() {
		for _, ser := range batch.Serializers() {
			b.Run(fmt.Sprintf("%s/%s", q, ser), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					info, err := experiments.FlinkRunInfo(q, gen, ser, cfg)
					if err != nil {
						b.Fatal(err)
					}
					if b1 := info.Breakdown; i == 0 && b1.Records > 0 {
						b.ReportMetric(float64((b1.Ser+b1.Deser).Microseconds())/float64(b1.Records)*1000, "sd-ns/record")
					}
				}
			})
		}
	}
}

// BenchmarkTable4Summary produces the Table 4 normalized summary.
func BenchmarkTable4Summary(b *testing.B) {
	cfg := experiments.DefaultFlinkConfig()
	cfg.SF = 0.3
	for i := 0; i < b.N; i++ {
		cells, err := experiments.RunFlinkMatrix(cfg, batch.AllQueries())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("Table 4 skyway: %s", experiments.Table4(cells).Row())
		}
	}
}

// --- §5.2 extras ----------------------------------------------------------------

// BenchmarkMemOverhead measures the baddr header word's peak-heap cost.
func BenchmarkMemOverhead(b *testing.B) {
	cfg := experiments.DefaultSparkConfig()
	cfg.GraphScale = 0.05
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMemOverhead(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range res {
				b.ReportMetric(r.OverheadFraction*100, string(r.App)+"-overhead-%")
			}
		}
	}
}

// BenchmarkExtraBytes measures Skyway's byte inflation vs Kryo and its
// composition (headers / padding / pointers).
func BenchmarkExtraBytes(b *testing.B) {
	cfg := experiments.DefaultSparkConfig()
	cfg.GraphScale = 0.05
	for i := 0; i < b.N; i++ {
		eb, err := experiments.RunExtraBytes(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(eb.SkywayBytes)/float64(eb.KryoBytes), "bytes-vs-kryo")
			b.ReportMetric(eb.HeaderShare*100, "hdr-share-%")
			b.ReportMetric(eb.PadShare*100, "pad-share-%")
			b.ReportMetric(eb.PtrShare*100, "ptr-share-%")
		}
	}
}

// --- ablations -------------------------------------------------------------------

// ablationEnv builds a sender/receiver pair over the media schema.
func ablationEnv(b *testing.B) (*vm.Runtime, *vm.Runtime) {
	b.Helper()
	cp := klass.NewPath()
	datagen.MediaClasses(cp)
	reg := registry.NewRegistry()
	snd, err := vm.NewRuntime(cp, vm.Options{Name: "abl-snd", Registry: registry.InProc{R: reg}})
	if err != nil {
		b.Fatal(err)
	}
	rcv, err := vm.NewRuntime(cp, vm.Options{Name: "abl-rcv", Registry: registry.InProc{R: reg}})
	if err != nil {
		b.Fatal(err)
	}
	return snd, rcv
}

// BenchmarkAblationRehash isolates the hashcode-preservation win: receiving
// a HashMap via Skyway (layout valid as-is) vs a reflective serializer that
// must rehash.
func BenchmarkAblationRehash(b *testing.B) {
	buildMap := func(rt *vm.Runtime, entries int) skyway.Addr {
		m, err := rt.NewHashMap(entries)
		if err != nil {
			b.Fatal(err)
		}
		mp := rt.Pin(m)
		defer mp.Release()
		for i := 0; i < entries; i++ {
			k := rt.MustNewString(fmt.Sprintf("key-%d", i))
			kp := rt.Pin(k)
			v := rt.MustNewString("value")
			vp := rt.Pin(v)
			if err := rt.HashMapPut(mp.Addr(), kp.Addr(), vp.Addr()); err != nil {
				b.Fatal(err)
			}
			kp.Release()
			vp.Release()
		}
		return mp.Addr()
	}
	const entries = 500

	b.Run("skyway-no-rehash", func(b *testing.B) {
		snd, rcv := ablationEnv(b)
		m := buildMap(snd, entries)
		mp := snd.Pin(m)
		defer mp.Release()
		sky := core.New(snd)
		for i := 0; i < b.N; i++ {
			sky.ShuffleStart()
			var buf bytes.Buffer
			w := sky.NewWriter(&buf)
			if err := w.WriteObject(mp.Addr()); err != nil {
				b.Fatal(err)
			}
			w.Close()
			r := core.NewReader(rcv, &buf)
			got, err := r.ReadObject()
			if err != nil {
				b.Fatal(err)
			}
			if !rcv.HashMapValid(got) {
				b.Fatal("skyway-received map needs rehash")
			}
			r.Free()
		}
	})
	b.Run("kryo-rehash", func(b *testing.B) {
		snd, rcv := ablationEnv(b)
		m := buildMap(snd, entries)
		mp := snd.Pin(m)
		defer mp.Release()
		reg := serial.NewRegistration(datagen.MediaClassNames()...)
		reg.Register(vm.HashMapClass)
		reg.Register(vm.HashMapNodeClass)
		reg.Register(vm.HashMapNodeClass + "[]")
		codec := serial.KryoCodec(reg)
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			enc := codec.NewEncoder(snd, &buf)
			if err := enc.Write(mp.Addr()); err != nil {
				b.Fatal(err)
			}
			enc.Flush()
			got, err := codec.NewDecoder(rcv, &buf).Read()
			if err != nil {
				b.Fatal(err)
			}
			if !rcv.HashMapValid(got) {
				b.Fatal("kryo decode left the map invalid")
			}
		}
	})
}

// BenchmarkAblationTypeStrings compares global integer type IDs against
// Java-style per-stream type strings: bytes and time for the same records.
func BenchmarkAblationTypeStrings(b *testing.B) {
	for _, mode := range []string{"registered-ids", "type-strings"} {
		b.Run(mode, func(b *testing.B) {
			snd, rcv := ablationEnv(b)
			gen := datagen.NewMediaGen(snd, 3)
			roots, release, err := gen.Batch(50)
			if err != nil {
				b.Fatal(err)
			}
			defer release()
			var codec serial.Codec
			if mode == "registered-ids" {
				codec = serial.KryoOptCodec(serial.NewRegistration(datagen.MediaClassNames()...))
			} else {
				codec = serial.JavaCodec()
			}
			var bytesOut int64
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				for _, root := range roots {
					enc := codec.NewEncoder(snd, &buf) // fresh stream: strings recur
					if err := enc.Write(root); err != nil {
						b.Fatal(err)
					}
					enc.Flush()
				}
				bytesOut = int64(buf.Len())
				dec := codec.NewDecoder(rcv, &buf)
				for {
					if _, err := dec.Read(); err != nil {
						break
					}
				}
			}
			b.ReportMetric(float64(bytesOut)/float64(len(roots)), "bytes/record")
		})
	}
}

// BenchmarkAblationStreaming compares flush-as-you-go segments against one
// monolithic buffer for a large transfer.
func BenchmarkAblationStreaming(b *testing.B) {
	for _, mode := range []struct {
		name string
		size int
	}{
		{"streaming-64KiB-segments", 64 << 10},
		{"buffer-everything", 64 << 20},
	} {
		b.Run(mode.name, func(b *testing.B) {
			snd, rcv := ablationEnv(b)
			gen := datagen.NewMediaGen(snd, 5)
			roots, release, err := gen.Batch(400)
			if err != nil {
				b.Fatal(err)
			}
			defer release()
			sky := core.New(snd)
			for i := 0; i < b.N; i++ {
				sky.ShuffleStart()
				var buf bytes.Buffer
				w := sky.NewWriter(&buf, core.WithBufferSize(mode.size))
				for _, root := range roots {
					if err := w.WriteObject(root); err != nil {
						b.Fatal(err)
					}
				}
				w.Close()
				r := core.NewReader(rcv, &buf)
				if _, err := r.ReadAll(); err != nil {
					b.Fatal(err)
				}
				r.Free()
			}
		})
	}
}

// BenchmarkAblationTopMarks compares sender-side top marks against the
// receiver re-walking the graph to find roots (the design top marks avoid).
func BenchmarkAblationTopMarks(b *testing.B) {
	snd, rcv := ablationEnv(b)
	gen := datagen.NewMediaGen(snd, 9)
	roots, release, err := gen.Batch(200)
	if err != nil {
		b.Fatal(err)
	}
	defer release()
	sky := core.New(snd)

	transfer := func() *core.Reader {
		sky.ShuffleStart()
		var buf bytes.Buffer
		w := sky.NewWriter(&buf)
		for _, root := range roots {
			if err := w.WriteObject(root); err != nil {
				b.Fatal(err)
			}
		}
		w.Close()
		return core.NewReader(rcv, &buf)
	}

	b.Run("top-marks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := transfer()
			got, err := r.ReadAll()
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != len(roots) {
				b.Fatal("root count mismatch")
			}
			r.Free()
		}
	})
	b.Run("receiver-traversal", func(b *testing.B) {
		// Simulate the alternative: roots must be recovered by walking
		// the received graph and finding objects no other object
		// references (a full traversal the paper's top marks avoid).
		for i := 0; i < b.N; i++ {
			r := transfer()
			got, err := r.ReadAll()
			if err != nil {
				b.Fatal(err)
			}
			// The extra pass: walk every object's references.
			referenced := make(map[skyway.Addr]bool)
			var walk func(a skyway.Addr)
			seen := make(map[skyway.Addr]bool)
			walk = func(a skyway.Addr) {
				if a == skyway.Null || seen[a] {
					return
				}
				seen[a] = true
				rcv.RefSlots(a, func(off uint32) {
					ref := skyway.Addr(rcv.Heap.Load(a, off, klass.Ref))
					if ref != skyway.Null {
						referenced[ref] = true
						walk(ref)
					}
				})
			}
			for _, g := range got {
				walk(g)
			}
			r.Free()
		}
	})
}

// BenchmarkAblationBaddr compares the baddr header word against the
// hash-table visited set a vanilla heap layout forces on the writer.
func BenchmarkAblationBaddr(b *testing.B) {
	for _, mode := range []struct {
		name  string
		baddr bool
	}{
		{"baddr-header-word", true},
		{"hash-table-visited-set", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cp := klass.NewPath()
			datagen.MediaClasses(cp)
			reg := registry.NewRegistry()
			hc := skyway.DefaultHeapConfig()
			hc.Layout = klass.Layout{Baddr: mode.baddr}
			snd, err := vm.NewRuntime(cp, vm.Options{Name: "abl", Heap: hc, Registry: registry.InProc{R: reg}})
			if err != nil {
				b.Fatal(err)
			}
			gen := datagen.NewMediaGen(snd, 4)
			roots, release, err := gen.Batch(300)
			if err != nil {
				b.Fatal(err)
			}
			defer release()
			sky := core.New(snd)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sky.ShuffleStart()
				w := sky.NewWriter(discard{}, core.WithTargetLayout(klass.Layout{Baddr: true}))
				for _, root := range roots {
					if err := w.WriteObject(root); err != nil {
						b.Fatal(err)
					}
				}
				w.Close()
			}
		})
	}
}

// BenchmarkAblationCompact quantifies the §5.2 future-work tradeoff: the
// compact wire encoding's byte savings vs its CPU cost, against the
// standard whole-image mode, end to end (send + receive).
func BenchmarkAblationCompact(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts []core.WriterOption
	}{
		{"standard", nil},
		{"compact-headers", []core.WriterOption{core.WithCompactHeaders()}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			snd, rcv := ablationEnv(b)
			gen := datagen.NewMediaGen(snd, 6)
			roots, release, err := gen.Batch(300)
			if err != nil {
				b.Fatal(err)
			}
			defer release()
			sky := core.New(snd)
			var wire int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sky.ShuffleStart()
				var buf bytes.Buffer
				w := sky.NewWriter(&buf, mode.opts...)
				for _, root := range roots {
					if err := w.WriteObject(root); err != nil {
						b.Fatal(err)
					}
				}
				w.Close()
				wire = buf.Len()
				r := core.NewReader(rcv, &buf)
				if _, err := r.ReadAll(); err != nil {
					b.Fatal(err)
				}
				r.Free()
			}
			b.ReportMetric(float64(wire)/300, "wire-bytes/record")
		})
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkTransferThroughput measures raw Skyway sender+receiver throughput
// on a large primitive-array payload (the best case for whole-object copy)
// and on a pointer-heavy graph (the worst case, every slot relativized).
func BenchmarkTransferThroughput(b *testing.B) {
	b.Run("primitive-arrays", func(b *testing.B) {
		snd, rcv := ablationEnv(b)
		ak := snd.MustLoad("double[]")
		arr := snd.MustNewArray(ak, 128<<10) // 1 MiB payload
		ah := snd.Pin(arr)
		defer ah.Release()
		sky := core.New(snd)
		b.SetBytes(int64(128 << 10 * 8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sky.ShuffleStart()
			var buf bytes.Buffer
			w := sky.NewWriter(&buf)
			if err := w.WriteObject(ah.Addr()); err != nil {
				b.Fatal(err)
			}
			w.Close()
			r := core.NewReader(rcv, &buf)
			if _, err := r.ReadObject(); err != nil {
				b.Fatal(err)
			}
			r.Free()
		}
	})
	b.Run("pointer-graph", func(b *testing.B) {
		snd, rcv := ablationEnv(b)
		gen := datagen.NewMediaGen(snd, 12)
		roots, release, err := gen.Batch(500)
		if err != nil {
			b.Fatal(err)
		}
		defer release()
		sky := core.New(snd)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sky.ShuffleStart()
			var buf bytes.Buffer
			w := sky.NewWriter(&buf)
			for _, root := range roots {
				if err := w.WriteObject(root); err != nil {
					b.Fatal(err)
				}
			}
			w.Close()
			if i == 0 {
				b.SetBytes(int64(buf.Len()))
			}
			r := core.NewReader(rcv, &buf)
			if _, err := r.ReadAll(); err != nil {
				b.Fatal(err)
			}
			r.Free()
		}
	})
}
