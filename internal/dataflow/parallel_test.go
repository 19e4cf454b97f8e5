package dataflow

import (
	"testing"

	"skyway/internal/datagen"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/serial"
)

func newParallelCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cp := klass.NewPath()
	WorkloadClasses(cp)
	if cfg.Heap.EdenSize == 0 {
		cfg.Heap = smallHeap()
	}
	c, err := NewCluster(cp, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Parallel execution must be invisible in the answers: every codec, four
// executors shuffling concurrently, same results as the sequential run.
func TestParallelMatchesSequential(t *testing.T) {
	lines := datagen.TextSpec{Lines: 800, WordsPerLine: 8, Vocabulary: 250, Seed: 11}.Generate()
	parts := [][]string{lines[:200], lines[200:400], lines[400:600], lines[600:]}
	g := datagen.GraphSpec{Name: "par", Vertices: 1200, AvgDegree: 6, Seed: 17}.Generate()

	codecs := map[string]func(c *Cluster) serial.Codec{
		"java":   func(*Cluster) serial.Codec { return serial.JavaCodec() },
		"kryo":   func(*Cluster) serial.Codec { return serial.KryoCodec(WorkloadRegistration()) },
		"skyway": func(*Cluster) serial.Codec { return serial.NewSkywayCodec() },
	}
	for name, mk := range codecs {
		t.Run(name, func(t *testing.T) {
			run := func(parallel int) (int64, float64) {
				c := newParallelCluster(t, Config{Workers: 4, ParallelTasks: parallel})
				c.Codec = mk(c)
				wbd, words, err := RunWordCount(c, parts)
				if err != nil {
					t.Fatal(err)
				}
				pbd, mass, err := RunPageRank(c, g, 2)
				if err != nil {
					t.Fatal(err)
				}
				if parallel > 1 {
					if !c.Parallel() {
						t.Error("cluster not parallel despite ParallelTasks > 1")
					}
					if wbd.Wall == 0 || pbd.Wall == 0 {
						t.Error("parallel run reported no wall time")
					}
					if wbd.Wall > wbd.Sum() || pbd.Wall > pbd.Sum() {
						t.Errorf("wall exceeds component sum: wc %v/%v pr %v/%v",
							wbd.Wall, wbd.Sum(), pbd.Wall, pbd.Sum())
					}
				} else {
					if c.Parallel() {
						t.Error("cluster parallel despite ParallelTasks = 1")
					}
					if wbd.Wall != 0 || pbd.Wall != 0 {
						t.Error("sequential run reported wall time; benchmark numbers would change")
					}
				}
				return words, mass
			}
			seqWords, seqMass := run(1)
			parWords, parMass := run(4)
			if seqWords != parWords {
				t.Errorf("word count: parallel %d != sequential %d", parWords, seqWords)
			}
			if seqMass != parMass {
				t.Errorf("rank mass: parallel %v != sequential %v", parMass, seqMass)
			}
		})
	}
}

// Concurrent senders inside one map task: records bound for different
// partitions share a payload object, so with two encoder streams drawing
// from one heap at once, only one stream can claim the shared object's
// baddr word — the others must take the §4.2 hash-table fallback, observable
// via OverflowHits.
func TestParallelConcurrentSendersShareHeap(t *testing.T) {
	c := newParallelCluster(t, Config{
		Workers:             4,
		PartitionsPerWorker: 4, // 16 partitions: several blocks per sender slot
		ParallelTasks:       4,
	})
	c.concurrentSenders = 4
	codec := serial.NewSkywayCodec()
	c.Codec = codec

	const cells = 64
	var wantSum int64
	for i := 0; i < cells; i++ {
		wantSum += int64(i)
	}

	p := c.NumPartitions()
	var got [4]int64
	spec := ShuffleSpec{
		Produce: func(ex *Executor, emit Emit) error {
			mk := ex.RT.MustLoad(AdjMsgClass)
			arrK := ex.RT.MustLoad("long[]")
			arr, err := ex.RT.NewArray(arrK, cells)
			if err != nil {
				return err
			}
			ah := ex.RT.Pin(arr)
			defer ah.Release()
			for i := 0; i < cells; i++ {
				ex.RT.ArraySetLong(ah.Addr(), i, int64(i))
			}
			// One record per partition, every record referencing the one
			// shared array: blocks encoded by different sender goroutines
			// collide on its baddr claim.
			for dst := 0; dst < p; dst++ {
				msg, err := ex.RT.New(mk)
				if err != nil {
					return err
				}
				ex.RT.SetLong(msg, mk.FieldByName("src"), int64(ex.ID))
				ex.RT.SetLong(msg, mk.FieldByName("dst"), int64(dst))
				ex.RT.SetRef(msg, mk.FieldByName("neighbors"), ah.Addr())
				emit(dst, uint64(dst), msg)
			}
			return nil
		},
		Consume: func(ex *Executor, recs []heap.Addr) error {
			mk := ex.RT.MustLoad(AdjMsgClass)
			nF := mk.FieldByName("neighbors")
			var sum int64
			for _, r := range recs {
				arr := ex.RT.GetRef(r, nF)
				n := ex.RT.ArrayLen(arr)
				for i := 0; i < n; i++ {
					sum += ex.RT.ArrayGetLong(arr, i)
				}
			}
			got[ex.ID] = sum
			return nil
		},
	}
	bd, err := c.RunShuffle(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Each executor sent p records, each dragging a full copy of the shared
	// array; each executor receives PartitionsPerWorker × Workers records.
	var total int64
	for _, s := range got {
		total += s
	}
	if want := wantSum * int64(p) * int64(c.Workers()); total != want {
		t.Errorf("received payload sum %d, want %d", total, want)
	}
	if bd.Records != int64(p*c.Workers()) {
		t.Errorf("records = %d, want %d", bd.Records, p*c.Workers())
	}
	var overflow uint64
	for _, ex := range c.Execs {
		overflow += codec.ServiceFor(ex.RT).Snapshot().OverflowHits
	}
	if overflow == 0 {
		t.Error("no overflow-table hits: concurrent sender streams never collided on a shared object")
	}
}

// SKYWAY_PARALLEL switches otherwise-default clusters onto the concurrent
// path (the CI parallel job sets it); an explicit ParallelTasks wins.
func TestParallelEnvVar(t *testing.T) {
	t.Setenv("SKYWAY_PARALLEL", "4")
	if c := newParallelCluster(t, Config{Workers: 4}); !c.Parallel() {
		t.Error("SKYWAY_PARALLEL=4 did not enable parallel tasks")
	}
	if c := newParallelCluster(t, Config{Workers: 4, ParallelTasks: 1}); c.Parallel() {
		t.Error("explicit ParallelTasks=1 overridden by env")
	}
	t.Setenv("SKYWAY_PARALLEL", "")
	if c := newParallelCluster(t, Config{Workers: 4}); c.Parallel() {
		t.Error("parallel without opt-in")
	}
	// Negative means one goroutine per executor.
	if c := newParallelCluster(t, Config{Workers: 4, ParallelTasks: -1}); !c.Parallel() {
		t.Error("ParallelTasks=-1 did not clamp to worker count")
	}
}

// The byte accounting must balance under concurrent tasks: bytes fetched
// (local + remote) equal bytes written, and some cross the wire on a
// multi-worker shuffle.
func TestParallelTrafficAccounting(t *testing.T) {
	lines := datagen.TextSpec{Lines: 400, WordsPerLine: 8, Vocabulary: 120, Seed: 23}.Generate()
	parts := [][]string{lines[:100], lines[100:200], lines[200:300], lines[300:]}
	c := newParallelCluster(t, Config{Workers: 4, ParallelTasks: 4})
	c.Codec = serial.KryoCodec(WorkloadRegistration())
	bd, _, err := RunWordCount(c, parts)
	if err != nil {
		t.Fatal(err)
	}
	if bd.LocalBytes+bd.RemoteBytes != bd.ShuffleBytes {
		t.Errorf("fetched %d+%d != written %d", bd.LocalBytes, bd.RemoteBytes, bd.ShuffleBytes)
	}
	if bd.RemoteBytes == 0 {
		t.Error("no remote bytes on a 4-worker shuffle")
	}
	if c.PeakHeap == 0 {
		t.Error("peak heap not sampled from parallel tasks")
	}
}
