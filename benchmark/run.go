package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// setupRepeats is how many times an untraced run sets its workload up; the
// median is setup_s. The last set-up is the one measured on.
const setupRepeats = 3

// result is one run of one workload: the end-to-end metrics of an untraced
// run, or the per-layer metrics of a traced one.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Ops       int                `json:"ops"`
	FailedOps int                `json:"failed_ops"`
	Samples   int                `json:"samples"`
	Metrics   map[string]float64 `json:"metrics"`
	// Walls is every verified iteration's wall-clock, in order, so a
	// result file shows the distribution and any drift, not only medians.
	Walls    []float64 `json:"walls_s"`
	Failures []string  `json:"failures,omitempty"`
}

// phase is one measured loop over a set-up workload.
type phase struct {
	walls     []float64 // wall-clock seconds, one per verified iteration
	cpus      []float64 // process user+sys seconds, one per verified iteration
	records   int64
	wire      int64
	attempted int
	failed    int
	peakHeap  uint64
	failures  []string
}

// heapWindow is how many iterations the heap peak is sampled over. A job
// cluster's old generation fills for several jobs before a full collection
// empties it, so a peak over the whole phase would depend on how many
// iterations the host managed in the time; over a fixed window it is a
// function of the seed alone.
const heapWindow = 8

// processCPU returns the process's user+sys CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// releaseMemory collects a torn-down workload's heaps. The pages stay mapped
// in the process for the next set-up to reuse: handing them back to the
// kernel (and, in a VM, on to the host) and faulting them in again costs a
// time that depends on the host's memory state, not on the program.
func releaseMemory() {
	runtime.GC()
}

// measure runs w's closed loop — the next iteration starts when the previous
// one's result has been verified — while more allows. A failed iteration is
// counted and contributes no timing sample.
func measure(w workload, tr *tracer, more func(done int, elapsed time.Duration) bool) phase {
	var ph phase
	runtime.GC()
	start := time.Now()
	for i := 0; more(i, time.Since(start)); i++ {
		cpu0 := processCPU()
		t := time.Now()
		res, err := w.iterate(tr, i)
		d := time.Since(t)
		cpu := processCPU() - cpu0
		ph.attempted++
		if err != nil {
			ph.failed++
			if len(ph.failures) < 5 {
				ph.failures = append(ph.failures, err.Error())
			}
			continue
		}
		ph.walls = append(ph.walls, d.Seconds())
		ph.cpus = append(ph.cpus, cpu)
		ph.records += res.records
		ph.wire += res.wireBytes
		if hb := w.heapBytes(); i < heapWindow && hb > ph.peakHeap {
			ph.peakHeap = hb
		}
	}
	return ph
}

func forSeconds(seconds float64) func(int, time.Duration) bool {
	return func(_ int, elapsed time.Duration) bool { return elapsed.Seconds() < seconds }
}

// runUntraced is the end-to-end run: tracing off, every metric measured
// wall-clock or CPU, or an exact count.
func runUntraced(def workloadDef, seed uint64, seconds float64, sz sizes) (result, error) {
	res := result{Workload: def.name, Seed: seed, Seconds: seconds}
	var w workload
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		w = def.make()
		start := time.Now()
		if err := w.setup(seed, sz); err != nil {
			return res, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			if err := w.close(); err != nil {
				return res, err
			}
			w = nil
			releaseMemory()
		}
	}
	ph := measure(w, nil, forSeconds(seconds))
	if err := w.close(); err != nil {
		return res, err
	}
	res.Ops, res.FailedOps, res.Samples, res.Failures, res.Walls = ph.attempted, ph.failed, len(ph.walls), ph.failures, ph.walls
	res.Metrics = map[string]float64{
		"wall_s":                median(ph.walls),
		"records_per_s":         float64(ph.records) / float64(len(ph.walls)) / median(ph.walls),
		"cpu_s":                 median(ph.cpus),
		"wire_bytes_per_record": float64(ph.wire) / float64(ph.records),
		"peak_heap_mb":          float64(ph.peakHeap) / (1 << 20),
		"setup_s":               median(setups),
	}
	return res, nil
}

// runTraced is the per-layer run: a fixed number of iterations with the span
// recorder on (fixed, so every count taken in it repeats exactly), then an
// untraced stretch on the same set-up to price the tracing, then the
// isolated probes. The Chrome trace lands in outDir.
func runTraced(def workloadDef, seed uint64, seconds float64, sz sizes, outDir string) (result, error) {
	res := result{Workload: def.name, Seed: seed, Seconds: seconds, Traced: true}
	w := def.make()
	if err := w.setup(seed, sz); err != nil {
		return res, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	iters := tracedIters(w, seconds)
	tr := newTracer()
	w.resetLayers()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ph := measure(w, tr, func(done int, _ time.Duration) bool { return done < iters })
	runtime.ReadMemStats(&ms1)

	// A layer that is not on this workload's path did no work: its
	// metrics stay at the zero they start from.
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	w.layers(m, ph.attempted)
	plain := measure(w, nil, forSeconds(seconds/2))
	if err := w.close(); err != nil {
		return res, err
	}
	releaseMemory()

	self := tr.selfByName()
	m["span.iter_s"] = median(ph.walls)
	for _, g := range []string{"encode", "close", "decode", "consume", "free", "job"} {
		m["span."+g+"_self_s"] = self[g]
	}
	q1, q3 := quartiles(ph.walls)
	m["iter.samples"] = float64(len(ph.walls))
	m["iter.min_s"] = minOf(ph.walls)
	m["iter.iqr_s"] = q3 - q1
	m["iter.hi_s"], m["iter.hi_pct"] = hiPercentile(ph.walls)
	m["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["go.alloc_mb_per_iter"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / float64(ph.attempted)
	m["obs.trace_overhead"] = median(ph.walls) / median(plain.walls)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, err
	}
	if err := tr.writeChrome(filepath.Join(outDir, "trace-"+def.name+".json")); err != nil {
		return res, err
	}
	if err := runProbes(seed, sz, m); err != nil {
		return res, fmt.Errorf("%s: probes: %w", def.name, err)
	}
	m["go.max_rss_mb"] = maxRSSMB()

	res.Ops, res.FailedOps = ph.attempted+plain.attempted, ph.failed+plain.failed
	res.Samples, res.Walls = len(ph.walls), ph.walls
	res.Failures = append(ph.failures, plain.failures...)
	res.Metrics = m
	return res, nil
}

// check reports what is wrong with a result: a metric missing or not a
// finite number, or a leak check that did not hold. Failed iterations are
// reported through FailedOps, not here.
func (r result) check() error {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s missing", r.Workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.Workload, d.name, v)
		}
	}
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("%s: %d metrics reported, %d defined", r.Workload, len(r.Metrics), len(defs))
	}
	if r.Traced && r.Metrics["arena.leaked_regions"] != 0 {
		return fmt.Errorf("%s: %v arena regions leaked", r.Workload, r.Metrics["arena.leaked_regions"])
	}
	return nil
}
