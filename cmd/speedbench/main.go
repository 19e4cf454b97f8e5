// Command speedbench measures raw encode/decode throughput against the
// machine's memcpy ceiling. Skyway's claim is that transfer cost should be
// copying cost — §3's design removes the per-object translation work, so
// what remains is moving bytes. This benchmark quantifies how close the
// implementation gets:
//
//   - memcpy          — the host's sustained large-copy bandwidth (the ceiling)
//   - encode-array    — bulk corpus (long[] arrays) through a Skyway writer
//   - decode-array    — the same wire bytes through a Skyway reader
//   - encode-rec / decode-rec — many small records, where per-object header
//     work rather than memcpy dominates
//
// Each workload runs -passes times and the best pass wins (throughput
// benchmarks want the least-disturbed run, not the average). Results print
// as a table and, with -bench-json, land in BENCH_speed.json using the same
// trajectory schema CI gates with cmd/benchcmp.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"time"

	"skyway/internal/core"
	"skyway/internal/experiments"
	"skyway/internal/gc"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/registry"
	"skyway/internal/vm"
)

func main() {
	benchJSON := flag.String("bench-json", "", "write the speed trajectory to this JSON file")
	passes := flag.Int("passes", 7, "timed passes per workload (best pass wins)")
	arrays := flag.Int("arrays", 24, "long[] arrays in the bulk corpus")
	arrayLen := flag.Int("array-len", 64<<10, "elements per long[] array")
	records := flag.Int("records", 40000, "records in the small-object corpus")
	flag.Parse()

	snd, rcv, sky := newCluster()
	f := experiments.BenchFile{Engine: "speed"}
	add := func(name, serializer string, n int64, d time.Duration) {
		gbps := float64(n) / d.Seconds() / 1e9
		fmt.Printf("%-18s %10.3f GB/s  (%d bytes, best of %d: %v)\n", name, gbps, n, *passes, d)
		f.Entries = append(f.Entries, experiments.BenchEntry{
			Figure: "speed", App: name, Serializer: serializer,
			TotalNS: int64(d), ShuffleBytes: n, GBps: gbps,
		})
	}

	// The ceiling: one sustained large copy, same order of magnitude as the
	// bulk corpus so both hit memory the same way.
	ceiling := make([]byte, 64<<20)
	ceilingDst := make([]byte, len(ceiling))
	add("memcpy", "host", int64(len(ceiling)), bestOf(*passes, func() error {
		copy(ceilingDst, ceiling)
		return nil
	}))

	// Bulk corpus: long[] arrays — the payload shape where encode/decode is
	// purely memcpy-bound once per-object work is out of the way.
	arrayRoots := buildArrays(snd, *arrays, *arrayLen)
	wire := encodeOnce(sky, arrayRoots)
	add("encode-array", "skyway", int64(len(wire)), bestOf(*passes, encodePass(sky, arrayRoots)))
	add("decode-array", "skyway", int64(len(wire)), bestOf(*passes, decodePass(rcv, wire)))

	// Small-record corpus: throughput here is bounded by per-object header
	// and field work, not memcpy — the contrast column.
	recRoots := buildRecords(snd, *records)
	recWire := encodeOnce(sky, recRoots)
	add("encode-rec", "skyway", int64(len(recWire)), bestOf(*passes, encodePass(sky, recRoots)))
	add("decode-rec", "skyway", int64(len(recWire)), bestOf(*passes, decodePass(rcv, recWire)))

	if *benchJSON != "" {
		if err := f.Write(*benchJSON); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *benchJSON)
	}
}

// newCluster builds a sender/receiver runtime pair sized for the corpora,
// sharing a classpath and an in-process registry for global type IDs.
func newCluster() (*vm.Runtime, *vm.Runtime, *core.Skyway) {
	cp := klass.NewPath()
	cp.MustDefine(&klass.ClassDef{Name: "Rec", Fields: []klass.FieldDef{
		{Name: "a", Kind: klass.Int64},
		{Name: "b", Kind: klass.Int64},
		{Name: "c", Kind: klass.Float64},
	}})
	cfg := heap.DefaultConfig()
	cfg.EdenSize = 96 << 20
	cfg.OldSize = 64 << 20
	cfg.BufferSize = 96 << 20
	reg := registry.NewRegistry()
	snd, err := vm.NewRuntime(cp, vm.Options{Name: "speed-snd", Heap: cfg, Registry: registry.InProc{R: reg}})
	if err != nil {
		log.Fatal(err)
	}
	rcv, err := vm.NewRuntime(cp, vm.Options{Name: "speed-rcv", Heap: cfg, Registry: registry.InProc{R: reg}})
	if err != nil {
		log.Fatal(err)
	}
	return snd, rcv, core.New(snd)
}

func buildArrays(rt *vm.Runtime, arrays, arrayLen int) []*gc.Handle {
	k := rt.MustLoad("long[]")
	roots := make([]*gc.Handle, 0, arrays)
	for i := 0; i < arrays; i++ {
		a := rt.MustNewArray(k, arrayLen)
		for j := 0; j < arrayLen; j += 17 {
			rt.ArraySetLong(a, j, int64(i)<<32|int64(j))
		}
		roots = append(roots, rt.Pin(a))
	}
	return roots
}

func buildRecords(rt *vm.Runtime, records int) []*gc.Handle {
	k := rt.MustLoad("Rec")
	roots := make([]*gc.Handle, 0, records)
	for i := 0; i < records; i++ {
		o := rt.MustNew(k)
		rt.SetInt(o, k.FieldByName("a"), int64(i))
		rt.SetInt(o, k.FieldByName("b"), int64(i)*3)
		roots = append(roots, rt.Pin(o))
	}
	return roots
}

// encodeOnce captures the wire bytes of one full encode of roots, so decode
// workloads replay exactly what encode workloads produce.
func encodeOnce(sky *core.Skyway, roots []*gc.Handle) []byte {
	var buf bytes.Buffer
	if err := encodeInto(sky, roots, &buf); err != nil {
		log.Fatal(err)
	}
	return append([]byte(nil), buf.Bytes()...)
}

func encodeInto(sky *core.Skyway, roots []*gc.Handle, buf *bytes.Buffer) error {
	// Each pass is a fresh shuffle phase: the previous pass's baddr marks
	// must not turn this pass's objects into back references.
	sky.ShuffleStart()
	buf.Reset()
	w := sky.NewWriter(buf)
	for _, h := range roots {
		if err := w.WriteObject(h.Addr()); err != nil {
			return err
		}
	}
	return w.Close()
}

func encodePass(sky *core.Skyway, roots []*gc.Handle) func() error {
	var buf bytes.Buffer
	return func() error { return encodeInto(sky, roots, &buf) }
}

func decodePass(rt *vm.Runtime, wire []byte) func() error {
	return func() error {
		r := core.NewReader(rt, bytes.NewReader(wire))
		for {
			if _, err := r.ReadObject(); err != nil {
				if err == io.EOF {
					break
				}
				return err
			}
		}
		// Explicit free (§3.2) so every pass starts from an empty input-
		// buffer region.
		r.Free()
		return nil
	}
}

func bestOf(passes int, fn func() error) time.Duration {
	best := time.Duration(0)
	for i := 0; i < passes; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			log.Fatal(err)
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best
}
