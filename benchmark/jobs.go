package main

import (
	"errors"
	"fmt"
	"time"

	"skyway/internal/dataflow"
	"skyway/internal/datagen"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/metrics"
	"skyway/internal/registry"
	"skyway/internal/serial"
	"skyway/internal/transport/tcp"
	"skyway/internal/vm"
)

// job is the job-pagerank / job-triangles-arena workload: one dataflow job
// per iteration on a cluster whose shuffle blocks move through in-process
// transport/tcp block servers over loopback. Tasks run sequentially, so one
// goroutine is busy besides the block servers' handlers.
type job struct {
	observed
	arena bool // TriangleCounting under skyway-arena; else PageRank under skyway

	sz      sizes
	g       *datagen.Graph
	cluster *benchCluster
	// wantDigest and wantRecords come from one run of the same job under
	// the java codec on the in-process netsim transport.
	wantDigest  float64
	wantRecords int64

	// Accumulated since resetLayers.
	bd      metrics.Breakdown
	jobWall time.Duration
}

// benchCluster is a dataflow cluster over loopback block servers.
type benchCluster struct {
	c     *dataflow.Cluster
	execs []*tcp.Executor
	tr    *meteredTransport
}

// jobHeap is experiments.SparkConfig.HeapMB's split of an executor heap.
func jobHeap(mb int) heap.Config {
	b := uint64(mb) << 20
	return heap.Config{
		EdenSize: b / 8, SurvivorSize: b / 64, OldSize: b / 2, BufferSize: b / 2,
		Layout: klass.Layout{Baddr: true},
	}
}

// newBenchCluster boots sz.workers executors with block servers on loopback
// and the named shuffle codec (skyway, skyway-arena or kryo).
func newBenchCluster(sz sizes, codec string, reg *registryStats) (*benchCluster, error) {
	bc := &benchCluster{}
	peers := make(map[int]string, sz.workers)
	for id := 0; id < sz.workers; id++ {
		ex, err := tcp.StartExecutor(id, "", "127.0.0.1:0")
		if err != nil {
			bc.close()
			return nil, err
		}
		bc.execs = append(bc.execs, ex)
		peers[id] = ex.Addr()
	}
	bc.tr = &meteredTransport{Transport: tcp.New(peers)}

	cp := klass.NewPath()
	dataflow.WorkloadClasses(cp)
	r := registry.NewRegistry()
	c, err := dataflow.NewCluster(cp, dataflow.Config{
		Workers: sz.workers, Heap: jobHeap(sz.heapMB), Transport: bc.tr, ParallelTasks: 1,
		RegistryClient: func() (registry.Client, error) { return reg.client(r), nil },
	}, nil)
	if err != nil {
		bc.close()
		return nil, err
	}
	bc.c = c
	if codec == "kryo" {
		c.Codec = serial.KryoCodec(dataflow.WorkloadRegistration())
		return bc, nil
	}
	sk := serial.NewSkywayCodec(bc.runtimes()...)
	sk.Arena = codec == "skyway-arena"
	c.Codec = sk
	return bc, nil
}

func (bc *benchCluster) runtimes() []*vm.Runtime {
	rts := []*vm.Runtime{bc.c.Driver}
	for _, ex := range bc.c.Execs {
		rts = append(rts, ex.RT)
	}
	return rts
}

func (bc *benchCluster) close() error {
	var err error
	if bc.tr != nil {
		err = bc.tr.Close()
	}
	for _, ex := range bc.execs {
		err = errors.Join(err, ex.Close())
	}
	return err
}

// benchGraph is the jobs' input: datagen's LiveJournal-shaped graph with its
// vertices renumbered by a permutation drawn from the seed. The permutation
// moves a vertex only within its shuffle partition (v mod partitions), so the
// seed decides every ID, sort key and message order, but not how many edges,
// messages or triangles there are nor how they spread over the executors:
// runs on different seeds do the same work on the same heaps, and what is
// left between them is the host's noise.
func benchGraph(seed uint64, sz sizes) (*datagen.Graph, error) {
	spec, err := datagen.GraphByName("LiveJournal", sz.graphScale)
	if err != nil {
		return nil, err
	}
	g := spec.Generate()
	rng := datagen.NewRNG(seed)
	partitions := 2 * sz.workers // dataflow.Config.PartitionsPerWorker's default
	perm := make([]int32, g.N)
	for class := 0; class < partitions; class++ {
		var members []int32
		for v := class; v < g.N; v += partitions {
			members = append(members, int32(v))
		}
		shuffled := append([]int32(nil), members...)
		for i := len(shuffled) - 1; i > 0; i-- {
			k := rng.Intn(i + 1)
			shuffled[i], shuffled[k] = shuffled[k], shuffled[i]
		}
		for i, v := range members {
			perm[v] = shuffled[i]
		}
	}
	adj := make([][]int32, g.N)
	for u, nbrs := range g.Adj {
		out := make([]int32, len(nbrs))
		for i, v := range nbrs {
			out[i] = perm[v]
		}
		adj[perm[u]] = out
	}
	g.Adj = adj
	return g, nil
}

// runJob runs the workload's job once on c.
func (j *job) runJob(c *dataflow.Cluster) (metrics.Breakdown, float64, error) {
	if j.arena {
		bd, tris, err := dataflow.RunTriangleCounting(c, j.g)
		return bd, float64(tris), err
	}
	return dataflow.RunPageRank(c, j.g, j.sz.prIters)
}

func (j *job) nominalRate() float64 {
	if j.arena {
		return 1.2
	}
	return 2.2
}

func (j *job) setup(seed uint64, sz sizes) error {
	j.sz = sz
	var err error
	if j.g, err = benchGraph(seed, sz); err != nil {
		return err
	}

	// The reference: same job, java codec, netsim.LocalTransport — no
	// Skyway code and no socket on its path.
	cp := klass.NewPath()
	dataflow.WorkloadClasses(cp)
	ref, err := dataflow.NewCluster(cp, dataflow.Config{Workers: sz.workers, Heap: jobHeap(sz.heapMB), ParallelTasks: 1}, serial.JavaCodec())
	if err != nil {
		return err
	}
	bd, digest, err := j.runJob(ref)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	j.wantDigest, j.wantRecords = digest, bd.Records

	codec := "skyway"
	if j.arena {
		codec = "skyway-arena"
	}
	if j.cluster, err = newBenchCluster(sz, codec, &j.reg); err != nil {
		return err
	}
	j.runtimes = j.cluster.runtimes()
	for _, ex := range j.cluster.c.Execs {
		j.receivers = append(j.receivers, ex.RT)
	}
	sk := j.cluster.c.Codec.(*serial.SkywayCodec)
	for _, rt := range j.runtimes {
		j.services = append(j.services, sk.ServiceFor(rt))
	}
	j.cluster.tr.onDrop = j.sampleArena

	for i := 0; i < sz.warmup; i++ {
		if _, err := j.iterate(nil, 0); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (j *job) iterate(tr *tracer, iter int) (iterResult, error) {
	root := tr.root("iter", iter)
	sp := root.child("job", tidMain)
	j.cluster.tr.cur = sp
	start := time.Now()
	bd, digest, err := j.runJob(j.cluster.c)
	wall := time.Since(start)
	j.cluster.tr.cur = spanRef{}
	sp.arg("compute_ns", int64(bd.Compute))
	sp.arg("ser_ns", int64(bd.Ser))
	sp.arg("deser_ns", int64(bd.Deser))
	sp.arg("write_io_ns", int64(bd.WriteIO))
	sp.arg("read_io_ns", int64(bd.ReadIO))
	sp.arg("records", bd.Records)
	sp.arg("shuffle_bytes", bd.ShuffleBytes)
	sp.end()
	root.end()
	if err != nil {
		return iterResult{}, err
	}
	j.bd.Add(bd)
	j.jobWall += wall
	switch _, leaked := j.arenaNow(); {
	case digest != j.wantDigest:
		return iterResult{}, fmt.Errorf("digest %v, reference %v", digest, j.wantDigest)
	case bd.Records != j.wantRecords:
		return iterResult{}, fmt.Errorf("%d records, reference %d", bd.Records, j.wantRecords)
	case leaked != 0:
		return iterResult{}, fmt.Errorf("%d arena regions live after the job", leaked)
	}
	return iterResult{records: bd.Records, wireBytes: bd.ShuffleBytes}, nil
}

// heapBytes uses Cluster.PeakHeap, which the dataflow layer samples at task
// completion while a reduce task's input buffers are still live.
func (j *job) heapBytes() uint64 { return j.cluster.c.PeakHeap + j.arenaPeakBytes }

func (j *job) resetLayers() {
	j.observed.resetLayers()
	j.bd, j.jobWall = metrics.Breakdown{}, 0
	j.cluster.tr.stats = transportStats{}
}

func (j *job) layers(m map[string]float64, iters int) {
	j.observed.layers(m, iters)
	n := float64(iters)
	m["vm.peak_heap_bytes"] = float64(j.cluster.c.PeakHeap)
	bd := j.bd
	m["dataflow.compute_s"] = bd.Compute.Seconds() / n
	m["dataflow.ser_s"] = bd.Ser.Seconds() / n
	m["dataflow.deser_s"] = bd.Deser.Seconds() / n
	m["dataflow.write_io_s"] = bd.WriteIO.Seconds() / n
	m["dataflow.read_io_s"] = bd.ReadIO.Seconds() / n
	m["dataflow.unattributed_s"] = (j.jobWall - bd.Sum()).Seconds() / n
	m["dataflow.records"] = float64(bd.Records) / n
	m["dataflow.shuffle_bytes"] = float64(bd.ShuffleBytes) / n
	m["dataflow.local_bytes"] = float64(bd.LocalBytes) / n
	m["dataflow.remote_bytes"] = float64(bd.RemoteBytes) / n
	st := j.cluster.tr.stats
	m["transport.put_s"] = st.putTime.Seconds() / n
	m["transport.fetch_s"] = st.fetchTime.Seconds() / n
	m["transport.drop_s"] = st.dropTime.Seconds() / n
	m["transport.puts"] = float64(st.puts) / n
	m["transport.fetches"] = float64(st.fetches) / n
	m["transport.put_bytes"] = float64(st.putBytes) / n
	m["transport.fetch_bytes"] = float64(st.fetchBytes) / n
}

func (j *job) close() error { return j.cluster.close() }
