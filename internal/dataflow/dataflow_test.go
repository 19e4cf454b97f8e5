package dataflow

import (
	"testing"

	"skyway/internal/datagen"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/race"
	"skyway/internal/serial"
	"skyway/internal/verify"
)

func smallHeap() heap.Config {
	return heap.Config{
		EdenSize:     16 << 20,
		SurvivorSize: 2 << 20,
		OldSize:      32 << 20,
		BufferSize:   64 << 20,
		Layout:       klass.Layout{Baddr: true},
	}
}

func newTestCluster(t *testing.T, codec serial.Codec, cp *klass.Path) *Cluster {
	t.Helper()
	c, err := NewCluster(cp, Config{Workers: 3, Heap: smallHeap()}, codec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testCodecs(t *testing.T, cp *klass.Path) map[string]func(*Cluster) serial.Codec {
	t.Helper()
	return map[string]func(*Cluster) serial.Codec{
		"java":         func(*Cluster) serial.Codec { return serial.JavaCodec() },
		"kryo":         func(*Cluster) serial.Codec { return serial.KryoCodec(WorkloadRegistration()) },
		"skyway":       func(*Cluster) serial.Codec { return serial.NewSkywayCodec() },
		"skyway-arena": func(*Cluster) serial.Codec { return &serial.SkywayCodec{Arena: true} },
	}
}

// runAll runs a workload under every codec and checks all codecs agree on
// the result — data-transfer plumbing must not change answers.
func runAll(t *testing.T, run func(c *Cluster) (int64, error)) {
	t.Helper()
	cpBase := klass.NewPath()
	WorkloadClasses(cpBase)
	var want int64
	first := true
	for name, mk := range testCodecs(t, cpBase) {
		cp := klass.NewPath()
		WorkloadClasses(cp)
		c := newTestCluster(t, nil, cp)
		c.Codec = mk(c)
		got, err := run(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if first {
			want = got
			first = false
		} else if got != want {
			t.Errorf("%s: result %d differs from %d", name, got, want)
		}
	}
}

func TestWordCountAcrossCodecs(t *testing.T) {
	lines := datagen.TextSpec{Lines: 900, WordsPerLine: 8, Vocabulary: 300, Seed: 7}.Generate()
	parts := [][]string{lines[:300], lines[300:600], lines[600:]}
	runAll(t, func(c *Cluster) (int64, error) {
		bd, total, err := RunWordCount(c, parts)
		if err != nil {
			return 0, err
		}
		if bd.Records == 0 || bd.ShuffleBytes == 0 {
			t.Error("no shuffle accounted")
		}
		if total != 900*8 {
			t.Errorf("total words = %d, want %d", total, 900*8)
		}
		return total, nil
	})
}

func testGraph() *datagen.Graph {
	return datagen.GraphSpec{Name: "test", Vertices: 1500, AvgDegree: 6, Seed: 99}.Generate()
}

func TestPageRankAcrossCodecs(t *testing.T) {
	g := testGraph()
	runAll(t, func(c *Cluster) (int64, error) {
		bd, mass, err := RunPageRank(c, g, 3)
		if err != nil {
			return 0, err
		}
		if bd.Records == 0 {
			t.Error("no messages shuffled")
		}
		if mass <= 0 {
			t.Error("non-positive rank mass")
		}
		return int64(mass * 1e6), nil
	})
}

func TestConnectedComponentsAcrossCodecs(t *testing.T) {
	g := testGraph()
	runAll(t, func(c *Cluster) (int64, error) {
		_, comps, err := RunConnectedComponents(c, g, 10)
		if err != nil {
			return 0, err
		}
		if comps <= 0 || comps > g.N {
			t.Errorf("implausible component count %d", comps)
		}
		return int64(comps), nil
	})
}

func TestTriangleCountingAcrossCodecs(t *testing.T) {
	g := testGraph()
	runAll(t, func(c *Cluster) (int64, error) {
		bd, tris, err := RunTriangleCounting(c, g)
		if err != nil {
			return 0, err
		}
		if bd.ShuffleBytes == 0 {
			t.Error("TC shuffled nothing")
		}
		return tris, nil
	})
}

func TestTriangleCountMatchesBruteForce(t *testing.T) {
	g := datagen.GraphSpec{Name: "tiny", Vertices: 60, AvgDegree: 5, Seed: 3}.Generate()
	cp := klass.NewPath()
	WorkloadClasses(cp)
	c := newTestCluster(t, serial.JavaCodec(), cp)
	_, got, err := RunTriangleCounting(c, g)
	if err != nil {
		t.Fatal(err)
	}

	// Brute force over the symmetrized simple graph.
	adj := make([]map[int32]bool, g.N)
	for i := range adj {
		adj[i] = make(map[int32]bool)
	}
	for u := range g.Adj {
		for _, v := range g.Adj[u] {
			if int32(u) != v {
				adj[u][v] = true
				adj[v][int32(u)] = true
			}
		}
	}
	var want int64
	for u := 0; u < g.N; u++ {
		for v := range adj[u] {
			if v <= int32(u) {
				continue
			}
			for w := range adj[v] {
				if w > v && adj[u][w] {
					want++
				}
			}
		}
	}
	if got != want {
		t.Errorf("triangles = %d, want %d", got, want)
	}
}

func TestPageRankMassConvergesToN(t *testing.T) {
	// With damping 0.85 and contributions only along edges, total mass
	// stays bounded by N (equals N on graphs without dangling vertices).
	g := testGraph()
	cp := klass.NewPath()
	WorkloadClasses(cp)
	c := newTestCluster(t, serial.KryoCodec(WorkloadRegistration()), cp)
	_, mass, err := RunPageRank(c, g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if mass <= 0 || mass > float64(g.N)*1.01 {
		t.Errorf("rank mass %f implausible for N=%d", mass, g.N)
	}
}

func TestShuffleByteAccounting(t *testing.T) {
	lines := datagen.TextSpec{Lines: 300, WordsPerLine: 8, Vocabulary: 100, Seed: 1}.Generate()
	parts := [][]string{lines[:100], lines[100:200], lines[200:]}
	cp := klass.NewPath()
	WorkloadClasses(cp)
	c := newTestCluster(t, serial.KryoCodec(WorkloadRegistration()), cp)
	bd, _, err := RunWordCount(c, parts)
	if err != nil {
		t.Fatal(err)
	}
	if bd.LocalBytes+bd.RemoteBytes != bd.ShuffleBytes {
		t.Errorf("local(%d)+remote(%d) != shuffled(%d)", bd.LocalBytes, bd.RemoteBytes, bd.ShuffleBytes)
	}
	if bd.RemoteBytes == 0 {
		t.Error("no remote fetches on a 3-worker shuffle")
	}
	if bd.WriteIO == 0 || bd.ReadIO == 0 {
		t.Error("modelled I/O missing")
	}
	if c.PeakHeap == 0 {
		t.Error("peak heap not sampled")
	}
}

func TestSkywayShufflesMoreBytesButLessSD(t *testing.T) {
	// The paper's headline tradeoff: Skyway moves more bytes than Kryo
	// (1.77× in §5.2) yet spends less CPU time in S/D.
	g := testGraph()
	run := func(mk func(c *Cluster) serial.Codec) (sd float64, bytes int64) {
		cp := klass.NewPath()
		WorkloadClasses(cp)
		c := newTestCluster(t, nil, cp)
		c.Codec = mk(c)
		bd, _, err := RunPageRank(c, g, 3)
		if err != nil {
			t.Fatal(err)
		}
		return float64(bd.Ser+bd.Deser) / float64(bd.Records), bd.ShuffleBytes
	}
	kryoSD, kryoBytes := run(func(*Cluster) serial.Codec { return serial.KryoCodec(WorkloadRegistration()) })
	skySD, skyBytes := run(func(*Cluster) serial.Codec { return serial.NewSkywayCodec() })
	if skyBytes <= kryoBytes {
		t.Errorf("skyway bytes (%d) not larger than kryo (%d)", skyBytes, kryoBytes)
	}
	if verify.Enabled() {
		// The verifier walks the whole heap at every collection, and the
		// Skyway path collects more; wall-clock comparisons on an
		// instrumented run measure the instrumentation.
		t.Skip("timing comparison skipped under SKYWAY_VERIFY")
	}
	if race.Enabled {
		t.Skip("timing comparison skipped under the race detector")
	}
	if skySD >= kryoSD {
		t.Errorf("skyway per-record S/D (%f) not below kryo (%f)", skySD, kryoSD)
	}
}

func TestPartitionCountsDoNotChangeResults(t *testing.T) {
	g := testGraph()
	var want float64
	for i, ppw := range []int{1, 2, 4} {
		cp := klass.NewPath()
		WorkloadClasses(cp)
		c, err := NewCluster(cp, Config{Workers: 3, Heap: smallHeap(), PartitionsPerWorker: ppw},
			serial.KryoCodec(WorkloadRegistration()))
		if err != nil {
			t.Fatal(err)
		}
		if c.NumPartitions() != 3*ppw {
			t.Fatalf("NumPartitions = %d, want %d", c.NumPartitions(), 3*ppw)
		}
		for p := 0; p < c.NumPartitions(); p++ {
			if o := c.OwnerOf(p); o < 0 || o >= 3 {
				t.Fatalf("OwnerOf(%d) = %d", p, o)
			}
		}
		_, mass, err := RunPageRank(c, g, 3)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = mass
		} else if mass != want {
			t.Errorf("ppw=%d: mass %v differs from ppw=1's %v", ppw, mass, want)
		}
	}
}
