package main

import (
	"fmt"
	"math"
)

// sizes freezes every workload's inputs. The full sizes are the benchmark;
// the quick sizes exist so bench_test.go can drive all five workloads in a
// few seconds.
type sizes struct {
	// xfer-records: root graphs per stream and the shared string pool a
	// third of them point into.
	records, sharedStrings int
	// xfer-arrays: long[] arrays per stream and elements per array.
	arrays, arrayLen int
	// job-*: LiveJournal-shaped graph scale, PageRank rounds, executors
	// and per-executor heap.
	graphScale float64
	prIters    int
	workers    int
	heapMB     int
	// bcast-media: media-content graphs and receiver runtimes.
	media, receivers int
	// warm-up iterations per set-up, excluded from every sample.
	warmup int
	// Probe corpora of the traced run, the buffer the host ceilings are
	// measured on, and the transport probe's large block.
	probeRecords, probeArrays       int
	probeHostBytes, probeBlockBytes int
	probePasses                     int
	// kryoJobs is how many jobs each arm of the serial.* reference runs.
	kryoJobs int
}

var fullSizes = sizes{
	records: 300_000, sharedStrings: 5_000,
	arrays: 128, arrayLen: 128 << 10,
	graphScale: 0.15, prIters: 3, workers: 2, heapMB: 128,
	media: 5_000, receivers: 4,
	warmup:       2,
	probeRecords: 100_000, probeArrays: 32, probeHostBytes: 64 << 20, probeBlockBytes: 32 << 20, probePasses: 5,
	kryoJobs: 3,
}

var quickSizes = sizes{
	records: 3_000, sharedStrings: 100,
	arrays: 4, arrayLen: 16 << 10,
	graphScale: 0.02, prIters: 2, workers: 2, heapMB: 16,
	media: 100, receivers: 2,
	warmup:       1,
	probeRecords: 2_000, probeArrays: 2, probeHostBytes: 4 << 20, probeBlockBytes: 1 << 20, probePasses: 2,
	kryoJobs: 1,
}

// iterResult is what one verified iteration delivered.
type iterResult struct {
	records   int64 // roots (xfer-*, bcast-media) or Breakdown.Records (jobs)
	wireBytes int64 // bytes that crossed the socket / block store
}

// workload is one of the five named benchmark workloads. Everything it needs
// — runtimes, heaps, clusters, block servers, corpora, reference digests — is
// built once in setup and reused by every iterate call.
type workload interface {
	// setup builds the workload from the seed, computes its reference
	// result by a path independent of the one measured, and runs the
	// warm-up iterations.
	setup(seed uint64, sz sizes) error
	// iterate runs one closed-loop iteration — first call in, result
	// verified — and returns what it delivered. A verification failure is
	// an error; the caller counts it in failed ops and takes no timing
	// sample from it. tr may be nil (untraced).
	iterate(tr *tracer, iter int) (iterResult, error)
	// heapBytes is the receiver side's footprint right now: managed heap
	// in use (input-buffer extent included) plus off-heap arena bytes at
	// their high-water mark.
	heapBytes() uint64
	// layers reports the workload's own per-layer observations (gc.*,
	// dataflow.*, transport.*, registry.*, core.* service counters, vm.*,
	// arena.*) accumulated since the last resetLayers, averaged over iters.
	layers(m map[string]float64, iters int)
	resetLayers()
	// nominalRate is the iterations per second sizing runs saw on the
	// reference host; it fixes the traced phase's iteration count so every
	// count in it repeats exactly.
	nominalRate() float64
	close() error
}

type workloadDef struct {
	name string
	make func() workload
}

// workloads lists the benchmark's workloads in run order. Names are final:
// later issues cite them. Why each is here is recorded in BENCHMARK.json and
// README.md.
var workloads = []workloadDef{
	{"xfer-records", func() workload { return &xfer{arrays: false} }},
	{"xfer-arrays", func() workload { return &xfer{arrays: true} }},
	{"job-pagerank", func() workload { return &job{arena: false} }},
	{"job-triangles-arena", func() workload { return &job{arena: true} }},
	{"bcast-media", func() workload { return &bcast{} }},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// tracedIters fixes the traced phase's length as a function of --seconds
// alone (never of how fast this host happens to run), so the counts taken in
// it are the same on every run of the same code.
func tracedIters(w workload, seconds float64) int {
	n := int(math.Round(w.nominalRate() * seconds * 0.4))
	if n < 2 {
		n = 2
	}
	return n
}
