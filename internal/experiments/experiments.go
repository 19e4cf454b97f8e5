// Package experiments contains the reproduction harnesses for every table
// and figure in the paper's evaluation (§2.2, §5), run by the cmd/ binaries.
// Each experiment returns structured results; apart from the breakdown table
// every matrix shares (PrintBreakdown), formatting lives with the callers.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"skyway/internal/batch"
	"skyway/internal/dataflow"
	"skyway/internal/datagen"
	"skyway/internal/gc"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/metrics"
	"skyway/internal/netsim"
	"skyway/internal/registry"
	"skyway/internal/serial"
	"skyway/internal/vm"
)

// --- Figure 7: JSBS ----------------------------------------------------------

// JSBSResult is one bar of Figure 7.
type JSBSResult struct {
	Lib   string
	Ser   time.Duration // total serialization time
	Deser time.Duration // total deserialization time
	Net   time.Duration // modelled broadcast time
	Bytes int64         // serialized volume
}

// Total returns the bar height.
func (r JSBSResult) Total() time.Duration { return r.Ser + r.Deser + r.Net }

// jsbsEnv is the JSBS cluster scaffolding: one sender plus a factory for
// fresh receiver runtimes attached to the same registry and classpath.
type jsbsEnv struct {
	cp  *klass.Path
	reg *registry.Registry
	snd *vm.Runtime
}

func newJSBSEnv() (*jsbsEnv, error) {
	cp := klass.NewPath()
	datagen.MediaClasses(cp)
	env := &jsbsEnv{cp: cp, reg: registry.NewRegistry()}
	snd, err := vm.NewRuntime(cp, vm.Options{Name: "jsbs-snd", Heap: jsbsHeap(), Registry: registry.InProc{R: env.reg}})
	if err != nil {
		return nil, err
	}
	env.snd = snd
	return env, nil
}

func jsbsHeap() heap.Config {
	big := heap.DefaultConfig()
	big.EdenSize = 64 << 20
	big.OldSize = 256 << 20
	big.BufferSize = 256 << 20
	return big
}

func (e *jsbsEnv) newReceiver(name string) (*vm.Runtime, error) {
	return vm.NewRuntime(e.cp, vm.Options{Name: name, Heap: jsbsHeap(), Registry: registry.InProc{R: e.reg}})
}

// JSBSCodecs returns the Figure 7 library lineup (Skyway first).
func JSBSCodecs() []serial.Codec {
	reg := serial.NewRegistration(datagen.MediaClassNames()...)
	return []serial.Codec{
		serial.NewSkywayCodec(),
		serial.ColferCodec(reg),
		serial.ProtostuffCodec(reg),
		serial.DatakernelCodec(reg),
		serial.ProtostuffRuntimeCodec(reg),
		serial.KryoManualCodec(reg),
		serial.KryoOptCodec(reg),
		serial.KryoCodec(reg),
		serial.ThriftCodec(reg),
		serial.FSTCodec(),
		serial.AvroGenericCodec(reg),
		serial.WoblyCodec(reg),
		serial.SmileCodec(),
		serial.CBORCodec(),
		serial.JavaCodec(),
		serial.JsonLikeCodec(),
	}
}

// RunJSBS reproduces Figure 7: n media-content graphs are serialized,
// "broadcast" to the other nodes of a 5-node cluster (network modelled),
// and deserialized; per-library totals are returned sorted fastest-first.
func RunJSBS(n int, model netsim.CostModel) ([]JSBSResult, error) {
	env, err := newJSBSEnv()
	if err != nil {
		return nil, err
	}
	snd := env.snd
	gen := datagen.NewMediaGen(snd, 7)
	roots, release, err := gen.Batch(n)
	if err != nil {
		return nil, err
	}
	defer release()

	// 5-node cluster, switched full-duplex fabric: the four per-peer
	// unicasts proceed concurrently (distinct receiver NICs; the switch
	// is non-blocking), so a broadcast round costs one transmission time.
	// This matches the paper's observation that shipping 50% more bytes
	// barely moves the network cost (§1, §5.1).

	var out []JSBSResult
	for li, codec := range JSBSCodecs() {
		// Fresh receiver per library: no codec inherits another's heap
		// garbage or GC debt.
		rcv, err := env.newReceiver(fmt.Sprintf("jsbs-rcv-%d", li))
		if err != nil {
			return nil, err
		}
		// JSBS serializes each record through a fresh stream (a new
		// ObjectOutputStream per operation), so stream-scoped state —
		// the Java serializer's class descriptors above all — is paid
		// per record, as in the original benchmark. Each library runs
		// three repetitions; the best one is reported (JSBS likewise
		// repeats until timings stabilize).
		const reps = 5
		best := JSBSResult{Ser: 1 << 62, Deser: 1 << 62}
		for rep := 0; rep < reps; rep++ {
			// A repetition is a new shuffle phase: without the phase
			// bump the sender's baddr words would say "already sent".
			snd.ShuffleStart()
			// Collect Go-side garbage outside the timed sections so
			// background GC does not preempt a measurement (the
			// harness host may be a single-core machine).
			runtime.GC()
			payloads := make([][]byte, n)
			var total int64
			start := time.Now()
			for i, r := range roots {
				var buf bytes.Buffer
				enc := codec.NewEncoder(snd, &buf)
				if err := enc.Write(r); err != nil {
					return nil, fmt.Errorf("%s: %w", codec.Name(), err)
				}
				if err := enc.Flush(); err != nil {
					return nil, err
				}
				payloads[i] = buf.Bytes()
				total += int64(len(payloads[i]))
			}
			ser := time.Since(start)

			start = time.Now()
			for i := range payloads {
				dec := codec.NewDecoder(rcv, bytes.NewReader(payloads[i]))
				if _, err := dec.Read(); err != nil {
					return nil, fmt.Errorf("%s: record %d: %w", codec.Name(), i, err)
				}
			}
			deser := time.Since(start)

			if ser < best.Ser {
				best.Ser = ser
			}
			if deser < best.Deser {
				best.Deser = deser
			}
			best.Lib = codec.Name()
			best.Net = model.NetTime(total)
			best.Bytes = total
			// Clear receiver-side garbage between repetitions.
			rcv.GC.FullGC()
		}
		out = append(out, best)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total() < out[j].Total() })
	return out, nil
}

// --- Spark experiments (Figures 3, 8(a), Tables 1-2, §5.2 extras) -------------

// SparkApp names one of the four workloads.
type SparkApp string

// The Spark workloads of §5.2.
const (
	WC SparkApp = "WC"
	PR SparkApp = "PR"
	CC SparkApp = "CC"
	TC SparkApp = "TC"
)

// SparkApps lists the workloads in report order.
func SparkApps() []SparkApp { return []SparkApp{WC, PR, CC, TC} }

// SparkSerializers lists the Figure 8(a) serializers in report order. The
// skyway-arena column is the lazy-decode extension (DESIGN.md "Arena & lazy
// absolutization"): same wire bytes as skyway, received chunks held off-heap,
// so its gc_pauses row in BENCH_spark.json tracks the arena's GC payoff.
func SparkSerializers() []string { return []string{"java", "kryo", "skyway", "skyway-arena"} }

// SparkConfig parameterizes the Spark matrix.
type SparkConfig struct {
	Workers    int
	GraphScale float64 // 1.0 = 1/100 of the paper's graph sizes
	PRIters    int
	CCIters    int
	Model      netsim.CostModel
	// Layout overrides the executor heap layout (memory-overhead
	// experiment); zero value keeps the default (baddr on).
	Layout *klass.Layout
	// HeapMB scales each executor heap (eden ≈ HeapMB/8, old ≈ HeapMB/2,
	// buffers ≈ HeapMB/2); zero keeps dataflow.DefaultWorkerHeap. The
	// shuffle-heavy TriangleCounting runs need room proportional to the
	// graph scale, like the paper's 20-30 GB executor heaps.
	HeapMB int
	// Parallel is dataflow.Config.ParallelTasks: how many executor tasks
	// run concurrently per stage. 0/1 keeps the sequential harness (0 still
	// honors SKYWAY_PARALLEL); -1 means one goroutine per executor.
	Parallel int
}

// DefaultSparkConfig returns laptop-sized parameters.
func DefaultSparkConfig() SparkConfig {
	return SparkConfig{Workers: 3, GraphScale: 0.15, PRIters: 3, CCIters: 5, Model: netsim.Paper1GbE()}
}

func newSparkCluster(cfg SparkConfig, codecName string) (*dataflow.Cluster, error) {
	cp := klass.NewPath()
	dataflow.WorkloadClasses(cp)
	hc := dataflow.DefaultWorkerHeap()
	if cfg.HeapMB > 0 {
		mb := uint64(cfg.HeapMB) << 20
		hc.EdenSize = mb / 8
		hc.SurvivorSize = mb / 64
		hc.OldSize = mb / 2
		hc.BufferSize = mb / 2
	}
	if cfg.Layout != nil {
		hc.Layout = *cfg.Layout
	}
	codec, err := serial.ByName(codecName, dataflow.WorkloadRegistration())
	if err != nil {
		return nil, err
	}
	return dataflow.NewCluster(cp, dataflow.Config{
		Workers: cfg.Workers, Heap: hc, Model: cfg.Model, ParallelTasks: cfg.Parallel,
	}, codec)
}

// RunInfo is the full result of one experiment cell: the cost breakdown
// plus the observability extras the benchmark trajectory records.
type RunInfo struct {
	Breakdown  metrics.Breakdown
	Digest     float64
	PeakHeap   uint64   // peak executor heap usage
	BufferPeak uint64   // peak input-buffer usage (Skyway receive side)
	GC         gc.Stats // pause and promotion totals across the cluster
	// Transfer is the logical byte composition of what the executors sent
	// through Skyway, summed (zero under a baseline serializer).
	Transfer vm.TransferStats
}

// Cell is one labelled bar of the paper's matrix: the figure it belongs to,
// the axes that place it there (app × graph for Spark, query for Flink), the
// serializer, and the run's result.
type Cell struct {
	Figure     string // "fig3", "fig8a", "fig8b"
	App        SparkApp
	Graph      string
	Query      batch.Query
	Serializer string
	RunInfo
}

// Name is the cell's place in its figure without the serializer
// ("TC/LiveJournal", "QA"): cells that share it ran the same job and must
// agree on the digest.
func (c Cell) Name() string {
	if c.Query != "" {
		return string(c.Query)
	}
	return string(c.App) + "/" + c.Graph
}

// PrintBreakdown writes one row per cell — Total, the five components and
// the local / remote byte split — and a warning under any cell whose digest
// differs from the first cell of the same name: a serializer must not change
// the answer.
func PrintBreakdown(w io.Writer, cells []Cell) {
	fmt.Fprintf(w, "  %-18s %-14s %10s %10s %10s %10s %10s %10s %12s %12s\n",
		"cell", "serializer", "total", "compute", "ser", "writeIO", "deser", "readIO", "localB", "remoteB")
	first := make(map[string]Cell)
	for _, c := range cells {
		name, b := c.Name(), c.Breakdown
		fmt.Fprintf(w, "  %-18s %-14s %10v %10v %10v %10v %10v %10v %12d %12d\n",
			name, c.Serializer,
			b.Total().Round(time.Millisecond), b.Compute.Round(time.Millisecond), b.Ser.Round(time.Millisecond),
			b.WriteIO.Round(time.Millisecond), b.Deser.Round(time.Millisecond), b.ReadIO.Round(time.Millisecond),
			b.LocalBytes, b.RemoteBytes)
		if f, ok := first[name]; !ok {
			first[name] = c
		} else if f.Digest != c.Digest {
			fmt.Fprintf(w, "  WARNING: %s digest %v differs from %s digest %v\n", c.Serializer, c.Digest, f.Serializer, f.Digest)
		}
	}
}

// SparkRunInfo executes one (app, graph, serializer) cell on a fresh
// cluster: the breakdown, a codec-independent result digest, the cluster's
// peak executor heap and buffer usage, and its GC statistics.
func SparkRunInfo(app SparkApp, g *datagen.Graph, codecName string, cfg SparkConfig) (RunInfo, error) {
	// Start every cell from a clean Go heap so one cell's garbage does
	// not become background GC work inside the next cell's timers.
	runtime.GC()
	c, err := newSparkCluster(cfg, codecName)
	if err != nil {
		return RunInfo{}, err
	}
	var bd metrics.Breakdown
	var digest float64
	switch app {
	case WC:
		lines := datagen.TextSpec{Lines: g.N * 2, WordsPerLine: 12, Vocabulary: 20000, Seed: g.Spec.Seed}.Generate()
		parts := make([][]string, cfg.Workers)
		for i, l := range lines {
			parts[i%cfg.Workers] = append(parts[i%cfg.Workers], l)
		}
		var total int64
		bd, total, err = dataflow.RunWordCount(c, parts)
		digest = float64(total)
	case PR:
		var mass float64
		bd, mass, err = dataflow.RunPageRank(c, g, cfg.PRIters)
		digest = mass
	case CC:
		var comps int
		bd, comps, err = dataflow.RunConnectedComponents(c, g, cfg.CCIters)
		digest = float64(comps)
	case TC:
		var tris int64
		bd, tris, err = dataflow.RunTriangleCounting(c, g)
		digest = float64(tris)
	default:
		err = fmt.Errorf("experiments: unknown app %q", app)
	}
	var transfer vm.TransferStats
	for _, ex := range c.Execs {
		s := ex.RT.TransferStats()
		transfer.BytesSent += s.BytesSent
		transfer.HeaderBytes += s.HeaderBytes
		transfer.PaddingBytes += s.PaddingBytes
		transfer.PointerBytes += s.PointerBytes
	}
	return RunInfo{
		Breakdown:  bd,
		Digest:     digest,
		PeakHeap:   c.PeakHeap,
		BufferPeak: c.BufferPeak(),
		GC:         c.GCStats(),
		Transfer:   transfer,
	}, err
}

// RunSparkMatrix reproduces Figure 8(a): every app × graph × serializer.
func RunSparkMatrix(cfg SparkConfig, graphs []datagen.GraphSpec, apps []SparkApp) ([]Cell, error) {
	var cells []Cell
	for _, spec := range graphs {
		g := spec.Generate()
		for _, app := range apps {
			for _, ser := range SparkSerializers() {
				info, err := SparkRunInfo(app, g, ser, cfg)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", app, spec.Name, ser, err)
				}
				cells = append(cells, Cell{Figure: "fig8a", App: app, Graph: spec.Name, Serializer: ser, RunInfo: info})
			}
		}
	}
	return cells, nil
}

// Table2 aggregates Figure 8(a) cells into the Table 2 normalized summary:
// per serializer, each (app, graph) run normalized to the Java serializer.
func Table2(cells []Cell) map[string]*metrics.Summary {
	base := make(map[string]metrics.Breakdown) // app/graph -> java breakdown
	for _, c := range cells {
		if c.Serializer == "java" {
			base[c.Name()] = c.Breakdown
		}
	}
	out := map[string]*metrics.Summary{"kryo": {}, "skyway": {}}
	for _, c := range cells {
		if c.Serializer == "java" {
			continue
		}
		b, ok := base[c.Name()]
		if !ok {
			continue
		}
		s, ok := out[c.Serializer]
		if !ok {
			// Extension columns (skyway-arena) are not part of the paper's
			// Table 2 comparison.
			continue
		}
		s.Add(metrics.Normalize(c.Breakdown, b))
	}
	return out
}

// RunFig3 reproduces Figure 3(a)/(b), the §2.2 motivation experiment:
// TriangleCounting over the LiveJournal-shaped graph under Kryo and the Java
// serializer.
func RunFig3(cfg SparkConfig) ([]Cell, error) {
	spec, err := datagen.GraphByName("LiveJournal", cfg.GraphScale)
	if err != nil {
		return nil, err
	}
	g := spec.Generate()
	var out []Cell
	for _, ser := range []string{"kryo", "java"} {
		info, err := SparkRunInfo(TC, g, ser, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, Cell{Figure: "fig3", App: TC, Graph: spec.Name, Serializer: ser, RunInfo: info})
	}
	return out, nil
}

// MemOverheadResult is the §5.2 memory-overhead experiment for one app.
type MemOverheadResult struct {
	App              SparkApp
	PeakWithBaddr    uint64
	PeakWithoutBaddr uint64
	OverheadFraction float64
}

// RunMemOverhead measures peak executor heap usage with and without the
// baddr header word, running each app under Kryo (the serializer must not
// need baddr so the no-baddr layout stays valid).
func RunMemOverhead(cfg SparkConfig) ([]MemOverheadResult, error) {
	spec, err := datagen.GraphByName("LiveJournal", cfg.GraphScale)
	if err != nil {
		return nil, err
	}
	g := spec.Generate()
	var out []MemOverheadResult
	for _, app := range SparkApps() {
		with := cfg
		withLayout := klass.Layout{Baddr: true}
		with.Layout = &withLayout
		withInfo, err := SparkRunInfo(app, g, "kryo", with)
		if err != nil {
			return nil, err
		}
		without := cfg
		withoutLayout := klass.Layout{Baddr: false}
		without.Layout = &withoutLayout
		withoutInfo, err := SparkRunInfo(app, g, "kryo", without)
		if err != nil {
			return nil, err
		}
		out = append(out, MemOverheadResult{
			App:              app,
			PeakWithBaddr:    withInfo.PeakHeap,
			PeakWithoutBaddr: withoutInfo.PeakHeap,
			OverheadFraction: float64(withInfo.PeakHeap)/float64(withoutInfo.PeakHeap) - 1,
		})
	}
	return out, nil
}

// ShuffleBytes is one app's row of the §5.2 bytes analysis, in bytes per
// shuffled record: what the paper's full-image wire would carry (every object
// image plus a 9-byte top mark per record, stream framing aside), what the
// engine's Skyway wire did carry, the header-free floor — the field and element
// bytes of the shuffled graph, Σ klass.PayloadBytes and array payloads, which
// no encoding of those objects as they are laid out goes below — and Kryo's
// bytes for the same records. HeaderShare, PadShare and PtrShare decompose the
// full image's extra bytes over Kryo the way §5.2 does.
type ShuffleBytes struct {
	App                             SparkApp
	Records                         int64
	FullImage, Wire, Floor, Kryo    float64
	HeaderShare, PadShare, PtrShare float64
}

// fullImageTopMark models a top mark on the paper's full-image wire: a tag and
// a 64-bit relative address per root. (The library's full-image streams send
// the delta marks of the compact wire; the model is what §5.2 compares.)
const fullImageTopMark = 9

// RunShuffleBytes measures every app over the LiveJournal-shaped graph under
// Skyway and Kryo. The composition counters describe the logical transfer —
// the images a receiver ends up holding — whichever wire carried it.
func RunShuffleBytes(cfg SparkConfig) ([]ShuffleBytes, error) {
	spec, err := datagen.GraphByName("LiveJournal", cfg.GraphScale)
	if err != nil {
		return nil, err
	}
	g := spec.Generate()
	var out []ShuffleBytes
	for _, app := range SparkApps() {
		kryo, err := SparkRunInfo(app, g, "kryo", cfg)
		if err != nil {
			return nil, err
		}
		sky, err := SparkRunInfo(app, g, "skyway", cfg)
		if err != nil {
			return nil, err
		}
		n, s := float64(sky.Breakdown.Records), sky.Transfer
		image := float64(s.BytesSent) + fullImageTopMark*n
		extra := max(image-float64(kryo.Breakdown.ShuffleBytes), 1)
		out = append(out, ShuffleBytes{
			App:         app,
			Records:     sky.Breakdown.Records,
			FullImage:   image / n,
			Wire:        float64(sky.Breakdown.ShuffleBytes) / n,
			Floor:       float64(s.BytesSent-s.HeaderBytes-s.PaddingBytes) / n,
			Kryo:        float64(kryo.Breakdown.ShuffleBytes) / n,
			HeaderShare: float64(s.HeaderBytes) / extra,
			PadShare:    float64(s.PaddingBytes) / extra,
			PtrShare:    float64(s.PointerBytes) / extra,
		})
	}
	return out, nil
}

// --- Flink experiments (Figure 8(b), Tables 3-4) -------------------------------

// FlinkConfig parameterizes the Flink matrix.
type FlinkConfig struct {
	Workers int
	SF      float64
	Model   netsim.CostModel
}

// DefaultFlinkConfig returns laptop-sized parameters.
func DefaultFlinkConfig() FlinkConfig {
	return FlinkConfig{Workers: 3, SF: 1.0, Model: netsim.Paper1GbE()}
}

// FlinkRunInfo executes one (query, serializer) cell of Figure 8(b) on a
// fresh cluster — the mirror of SparkRunInfo, and the one place a Flink
// deployment is built, loaded, run and torn down.
func FlinkRunInfo(q batch.Query, gen *datagen.TPCH, serializer string, cfg FlinkConfig) (RunInfo, error) {
	// Start every cell from a clean Go heap, as SparkRunInfo does.
	runtime.GC()
	c, err := batch.NewCluster(dataflow.Config{Workers: cfg.Workers, Model: cfg.Model}, serializer)
	if err != nil {
		return RunInfo{}, err
	}
	db, err := batch.Load(c, gen)
	if err != nil {
		return RunInfo{}, err
	}
	bd, digest, err := batch.Run(c, q, db)
	db.Free()
	return RunInfo{
		Breakdown:  bd,
		Digest:     digest,
		PeakHeap:   c.PeakHeap,
		BufferPeak: c.BufferPeak(),
		GC:         c.GCStats(),
	}, err
}

// RunFlinkMatrix reproduces Figure 8(b): QA–QE under the built-in
// serializers and Skyway.
func RunFlinkMatrix(cfg FlinkConfig, queries []batch.Query) ([]Cell, error) {
	gen := datagen.GenTPCH(cfg.SF, 2024)
	var cells []Cell
	for _, ser := range batch.Serializers() {
		for _, q := range queries {
			info, err := FlinkRunInfo(q, gen, ser, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", ser, q, err)
			}
			cells = append(cells, Cell{Figure: "fig8b", Query: q, Serializer: ser, RunInfo: info})
		}
	}
	return cells, nil
}

// Table4 aggregates Figure 8(b) cells into the Table 4 normalized summary
// (Skyway vs the built-in serializers).
func Table4(cells []Cell) *metrics.Summary {
	base := make(map[batch.Query]metrics.Breakdown)
	for _, c := range cells {
		if c.Serializer == "flink-builtin" {
			base[c.Query] = c.Breakdown
		}
	}
	sum := &metrics.Summary{}
	for _, c := range cells {
		if c.Serializer != "skyway" {
			continue
		}
		if b, ok := base[c.Query]; ok {
			sum.Add(metrics.Normalize(c.Breakdown, b))
		}
	}
	return sum
}
