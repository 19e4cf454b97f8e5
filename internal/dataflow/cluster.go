// Package dataflow is a miniature Spark: a driver plus N executor runtimes
// (one simulated JVM each), datasets partitioned across executors, and a
// sort-based shuffle whose write/fetch/deserialize path matches the Spark
// pipeline the paper instruments (§2.2) — records are serialized with a
// pluggable serializer into per-reducer blocks, "spilled" to disk, fetched
// locally or remotely, and deserialized on the receiving executor. CPU-side
// S/D time is measured; disk and network time are modelled from byte counts
// by a netsim.CostModel.
package dataflow

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"skyway/internal/fault"
	"skyway/internal/gc"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/metrics"
	"skyway/internal/netsim"
	"skyway/internal/obs"
	"skyway/internal/registry"
	"skyway/internal/serial"
	"skyway/internal/transport"
	"skyway/internal/vm"
)

// Scheduler and shuffle-I/O counters, exported on /metrics.
var (
	ctrStages = obs.NewCounter("skyway_dataflow_stages_total", "Stages executed across all clusters.")
	ctrTasks  = obs.NewCounter("skyway_dataflow_tasks_total", "Executor tasks executed across all clusters.")

	ctrSpillBytes    = obs.NewCounter("skyway_io_spill_bytes_total", "Bytes spilled to modelled shuffle files.")
	ctrLocalReadB    = obs.NewCounter("skyway_io_local_read_bytes_total", "Bytes fetched from modelled local disk.")
	ctrRemoteReadB   = obs.NewCounter("skyway_io_remote_read_bytes_total", "Bytes fetched across the modelled network.")
	ctrRemoteFetches = obs.NewCounter("skyway_io_remote_fetches_total", "Remote shuffle fetches (per-transfer latency units).")
)

// Config sizes a cluster.
type Config struct {
	// Workers is the executor count (the paper's Spark experiments use 3).
	Workers int
	// Heap configures each executor's heap; zero value uses a default
	// sized for the bundled workloads.
	Heap heap.Config
	// Model prices disk and network I/O; zero value uses Paper1GbE.
	Model netsim.CostModel
	// Transport, when set, replaces the default in-process block exchange
	// (netsim.NewLocalTransport, priced by Model) — e.g. a
	// transport/tcp.Transport moving blocks through executor server
	// processes over real sockets. Under a measured transport Model prices
	// nothing.
	Transport transport.Transport
	// RegistryClient, when set, supplies each runtime's connection to the
	// type registry (one fresh client per runtime — a TCP cluster gives
	// every runtime its own registry.TCPClient). Default: in-process
	// clients against the cluster's own Registry.
	RegistryClient func() (registry.Client, error)
	// PartitionsPerWorker sets how many shuffle partitions each executor
	// hosts (Spark defaults to several partitions per core); the total
	// partition count is Workers × PartitionsPerWorker. Default 2.
	// Partition p is placed on worker p mod Workers, so with a whole
	// multiple per worker, key → worker ownership is stable regardless
	// of the partition count.
	PartitionsPerWorker int
	// ParallelTasks caps how many executor tasks run concurrently per
	// stage (map side, reduce side, Compute, Broadcast receive). 0 or 1
	// preserves the historical sequential execution; values above the
	// worker count are clamped to it; negative means one goroutine per
	// executor. When zero, the SKYWAY_PARALLEL environment variable (an
	// integer) supplies the value, so whole test runs can be switched to
	// the concurrent path (the CI parallel job does exactly that).
	// Results are identical either way; only scheduling and the
	// wall-clock accounting differ (metrics.Breakdown.Wall).
	ParallelTasks int
}

// Cluster is one simulated Spark deployment.
type Cluster struct {
	CP     *klass.Path
	Reg    *registry.Registry
	Driver *vm.Runtime
	Execs  []*Executor
	Model  netsim.CostModel

	// Codec is the active data serializer (spark.serializer).
	Codec serial.Codec

	// Transport is the byte-moving layer every block — shuffle or
	// broadcast — travels through (netsim.LocalTransport by default).
	Transport transport.Transport

	// PeakHeap tracks the maximum per-executor heap usage, sampled at
	// every task completion, for the §5.2 memory-overhead experiment.
	// Guarded by peakMu; read it only after a run returns.
	PeakHeap uint64

	// shuffleSeq numbers transport rounds, shuffles and broadcasts alike,
	// so a transport with persistent storage never confuses two rounds'
	// blocks.
	shuffleSeq int

	partitionsPerWorker int
	parallelTasks       int
	// concurrentSenders overrides senderSlots' rule when nonzero; only
	// tests set it.
	concurrentSenders int
	peakMu            sync.Mutex

	// excluded tracks map-side peers the reduce degradation ladder gave up
	// on (see faults.go); guarded by excludedMu.
	excludedMu sync.Mutex
	excluded   map[int]bool
}

// Executor is one worker JVM.
type Executor struct {
	ID int
	RT *vm.Runtime

	// The shuffle's record buffer. It belongs to the executor, not the task,
	// so every slice below keeps its capacity across rounds and rounds 2+ of
	// an iterative job grow nothing. Stages are barriers and an executor runs
	// one task at a time, so the map task, the reduce task and a broadcast
	// receive take turns with it; each leaves recs empty.
	recs     *gc.Roots     // the running task's records, one root slot each
	out      [][]outRecord // map side: (key, slot) per partition
	sortTmp  []outRecord   // sortByKey's second buffer
	batch    [][]heap.Addr // map side: a sorted block's records, per sender stream
	recBytes int           // wire bytes per record of the last map task
}

// blockBytes sizes the buffer a block of n records is encoded into: the
// last map task's bytes per record (48 before there was one) plus an eighth
// and a stream header's worth of slack. A low guess costs bytes.Buffer's
// usual doubling, nothing else.
func (ex *Executor) blockBytes(n int) int {
	per := ex.recBytes
	if per == 0 {
		per = 48
	}
	return n*per + n*per/8 + 512
}

// DefaultWorkerHeap sizes executor heaps for the bundled workloads.
func DefaultWorkerHeap() heap.Config {
	return heap.Config{
		EdenSize:     48 << 20,
		SurvivorSize: 4 << 20,
		OldSize:      96 << 20,
		BufferSize:   192 << 20,
		Layout:       klass.Layout{Baddr: true},
	}
}

// NewCluster boots a driver and workers over a shared classpath, with the
// driver hosting the global type registry (§4.1).
func NewCluster(cp *klass.Path, cfg Config, codec serial.Codec) (*Cluster, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.Heap.EdenSize == 0 {
		cfg.Heap = DefaultWorkerHeap()
	}
	if cfg.Model.NetBandwidth == 0 {
		cfg.Model = netsim.Paper1GbE()
	}
	if cfg.Model.Trace == nil {
		// Modelled disk/network charges get their own trace timeline.
		cfg.Model.Trace = obs.NewTracer("fabric")
	}
	reg := registry.NewRegistry()
	if cfg.RegistryClient == nil {
		cfg.RegistryClient = func() (registry.Client, error) { return registry.InProc{R: reg}, nil }
	}
	regClient, err := cfg.RegistryClient()
	if err != nil {
		return nil, err
	}
	driver, err := vm.NewRuntime(cp, vm.Options{Name: "driver", Registry: regClient})
	if err != nil {
		return nil, err
	}
	if cfg.PartitionsPerWorker <= 0 {
		cfg.PartitionsPerWorker = 2
	}
	if cfg.ParallelTasks == 0 {
		if n, err := strconv.Atoi(os.Getenv("SKYWAY_PARALLEL")); err == nil {
			cfg.ParallelTasks = n
		}
	}
	if cfg.ParallelTasks < 0 || cfg.ParallelTasks > cfg.Workers {
		cfg.ParallelTasks = cfg.Workers
	}
	if cfg.Transport == nil {
		cfg.Transport = netsim.NewLocalTransport()
	}
	c := &Cluster{
		CP: cp, Reg: reg, Driver: driver, Model: cfg.Model, Codec: codec,
		Transport: cfg.Transport, partitionsPerWorker: cfg.PartitionsPerWorker,
		parallelTasks: cfg.ParallelTasks,
	}
	for i := 0; i < cfg.Workers; i++ {
		rc, err := cfg.RegistryClient()
		if err != nil {
			return nil, err
		}
		rt, err := vm.NewRuntime(cp, vm.Options{
			Name:     fmt.Sprintf("worker-%d", i),
			Heap:     cfg.Heap,
			Registry: rc,
		})
		if err != nil {
			return nil, err
		}
		c.Execs = append(c.Execs, &Executor{ID: i, RT: rt, recs: rt.GC.NewRoots()})
	}
	return c, nil
}

// Workers returns the executor count.
func (c *Cluster) Workers() int { return len(c.Execs) }

// ioCharge prices one task's I/O, the one place the two transport worlds
// meet: a measured transport is charged the wall-clock time its sockets
// clocked; a modelled one what the cost model derives from the task's byte
// counts. modelled runs only in the second case — a cost query emits a
// fabric span and evaluates the netsim.fetch.slow failpoint.
func (c *Cluster) ioCharge(measured time.Duration, modelled func(netsim.CostModel) time.Duration) time.Duration {
	if c.Transport.Measured() {
		return measured
	}
	return modelled(c.Model)
}

// Parallel reports whether executor tasks run concurrently.
func (c *Cluster) Parallel() bool { return c.parallelTasks > 1 }

// taskSlots returns how many executor tasks may run at once.
func (c *Cluster) taskSlots() int {
	if c.parallelTasks > 1 {
		return c.parallelTasks
	}
	return 1
}

// senderSlots returns how many encoder goroutines serialize one executor's
// blocks — the §4.2 multi-threaded sender path, where several streams copy
// out of one heap at once and contend on the CAS-claimed baddr words: 2 when
// the cluster is parallel and the codec declares its encoders
// concurrency-safe (serial.ConcurrentCodec), else 1; bounded by the block
// count.
func (c *Cluster) senderSlots(blocks int) int {
	n := c.concurrentSenders
	if n == 0 {
		if c.Parallel() {
			n = 2
		} else {
			n = 1
		}
	}
	if n > 1 {
		if cc, ok := c.Codec.(serial.ConcurrentCodec); !ok || !cc.ConcurrentEncoders() {
			n = 1
		}
	}
	if n > blocks {
		n = blocks
	}
	if n < 1 {
		n = 1
	}
	return n
}

// NumPartitions returns the shuffle partition count.
func (c *Cluster) NumPartitions() int { return len(c.Execs) * c.partitionsPerWorker }

// GCStats aggregates collector statistics across the driver and all
// executors — the per-deployment GC pause totals the benchmark trajectory
// records next to each figure's breakdown.
func (c *Cluster) GCStats() gc.Stats {
	s := c.Driver.GC.Stats()
	for _, ex := range c.Execs {
		s.Merge(ex.RT.GC.Stats())
	}
	return s
}

// BufferPeak returns the largest input-buffer high-water mark across the
// executors (driver heaps never host input buffers in these workloads).
func (c *Cluster) BufferPeak() uint64 {
	var peak uint64
	for _, ex := range c.Execs {
		if hw := ex.RT.Heap.BufferHighWater(); hw > peak {
			peak = hw
		}
	}
	return peak
}

// OwnerOf returns the executor hosting shuffle partition p.
func (c *Cluster) OwnerOf(p int) int { return p % len(c.Execs) }

// sampleHeap records one executor's current heap usage into the cluster
// peak. It reads only ex's own heap, so a task may call it for itself while
// other executors run; the peak update itself is mutex-guarded. Sampling at
// task completion (rather than only at phase boundaries, which missed the
// receive-side high-water mark) is what the §5.2 memory-overhead numbers
// are built on.
func (c *Cluster) sampleHeap(ex *Executor) {
	u := ex.RT.Heap.UsedBytes()
	c.peakMu.Lock()
	if u > c.PeakHeap {
		c.PeakHeap = u
	}
	c.peakMu.Unlock()
}

// shuffleStart begins a new shuffle phase on every runtime of the cluster —
// the one-line integration mark of §3.3. The phase is the runtime's own
// state; a baseline codec never reads it.
func (c *Cluster) shuffleStart() {
	c.Driver.ShuffleStart()
	for _, ex := range c.Execs {
		ex.RT.ShuffleStart()
	}
}

// Task execution -----------------------------------------------------------

// taskResult is one executor task's contribution to a stage: its breakdown
// components (which sum across executors into the per-node totals of §2.2)
// and its own elapsed wall time (measured CPU plus modelled I/O; with
// concurrent senders inside the task, the slowest sender, not their sum).
type taskResult struct {
	bd   metrics.Breakdown
	wall time.Duration
}

// mergeBreakdowns folds per-executor task results into one stage breakdown.
// Components always sum — they are per-node CPU and I/O totals. Wall-clock
// does NOT equal that sum when tasks ran concurrently: the stage takes as
// long as its slowest executor, so the parallel merge records the per-
// executor max in Breakdown.Wall. Sequential runs leave Wall zero and
// Total() falls back to the sum, preserving the historical numbers.
func mergeBreakdowns(parallel bool, parts []taskResult) metrics.Breakdown {
	var out metrics.Breakdown
	var maxWall time.Duration
	for _, p := range parts {
		out.Add(p.bd)
		if p.wall > maxWall {
			maxWall = p.wall
		}
	}
	if parallel {
		out.Wall = maxWall
	}
	return out
}

// runPerExecutor runs task once per executor — concurrently, up to
// taskSlots goroutines, when the cluster is parallel — and merges the
// per-executor results. Each executor's runtime is confined to the single
// goroutine running its task for the duration of the stage; stage
// boundaries are barriers.
func (c *Cluster) runPerExecutor(stage string, task func(ex *Executor) (taskResult, error)) (metrics.Breakdown, error) {
	ctrStages.Inc()
	ctrTasks.Add(int64(len(c.Execs)))
	stageSpan := c.Driver.Trace.Span("stage", stage)
	defer stageSpan.End()
	if fault.Active() {
		// Failpoint: an executor dies mid-stage. The injected error takes
		// the normal task-failure path — the stage completes its barrier and
		// aborts cleanly with the executor named.
		inner := task
		task = func(ex *Executor) (taskResult, error) {
			if err := fault.Inject(fault.DataflowTaskDie); err != nil {
				ctrStageAborts.Inc()
				return taskResult{}, fmt.Errorf("executor %d killed: %w", ex.ID, err)
			}
			return inner(ex)
		}
	}
	if obs.Enabled() {
		// Wrap each task in a span on its executor's timeline carrying the
		// task's breakdown components.
		inner := task
		task = func(ex *Executor) (taskResult, error) {
			sp := ex.RT.Trace.Span("task", stage)
			res, err := inner(ex)
			sp.Arg("compute_ns", int64(res.bd.Compute)).
				Arg("ser_ns", int64(res.bd.Ser)).
				Arg("deser_ns", int64(res.bd.Deser)).
				Arg("write_io_ns", int64(res.bd.WriteIO)).
				Arg("read_io_ns", int64(res.bd.ReadIO)).
				Arg("shuffle_bytes", res.bd.ShuffleBytes).
				Arg("records", res.bd.Records).
				End()
			return res, err
		}
	}
	results := make([]taskResult, len(c.Execs))
	errs := make([]error, len(c.Execs))
	if slots := c.taskSlots(); slots > 1 {
		sem := make(chan struct{}, slots)
		var wg sync.WaitGroup
		for _, ex := range c.Execs {
			wg.Add(1)
			go func(ex *Executor) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				results[ex.ID], errs[ex.ID] = task(ex)
			}(ex)
		}
		wg.Wait()
	} else {
		for _, ex := range c.Execs {
			results[ex.ID], errs[ex.ID] = task(ex)
			if errs[ex.ID] != nil {
				break
			}
		}
	}
	bd := mergeBreakdowns(c.Parallel(), results)
	for id, err := range errs {
		if err != nil {
			return bd, fmt.Errorf("dataflow: %s on worker %d: %w", stage, id, err)
		}
	}
	return bd, nil
}
