package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"skyway/internal/race"
)

// skipUnlessMeasurable skips a test that drives the workloads when the
// process is one the benchmark itself would refuse to measure, or too slow
// to be worth it.
func skipUnlessMeasurable(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("drives every workload; skipped under -short")
	}
	if race.Enabled {
		t.Skip("drives every workload; skipped under the race detector")
	}
	if err := checkHygiene(); err != nil {
		t.Skipf("environment changes the measured program: %v", err)
	}
}

// TestQuickPass drives all five workloads at tiny sizes through both runs and
// checks every named metric is present, finite and in range, no iteration
// failed, and nothing leaked.
func TestQuickPass(t *testing.T) {
	skipUnlessMeasurable(t)
	out := t.TempDir()
	for _, def := range workloads {
		res, err := runUntraced(def, 1, 0.1, quickSizes)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.check(); err != nil {
			t.Error(err)
		}
		if res.FailedOps != 0 || res.Ops == 0 || res.Samples != res.Ops {
			t.Errorf("%s: ops=%d failed_ops=%d samples=%d: %v", def.name, res.Ops, res.FailedOps, res.Samples, res.Failures)
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.name]; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", def.name, d.name, v)
			}
		}

		res, err = runTraced(def, 1, 0.1, quickSizes, out)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.check(); err != nil {
			t.Error(err)
		}
		if res.FailedOps != 0 {
			t.Errorf("%s traced: failed_ops=%d: %v", def.name, res.FailedOps, res.Failures)
		}
		for _, d := range perLayer {
			if v := res.Metrics[d.name]; v < 0 && d.name != "dataflow.unattributed_s" {
				t.Errorf("%s: per-layer metric %s = %v, want >= 0", def.name, d.name, v)
			}
		}
		for _, name := range []string{"host.memcpy_gbps", "core.encode_ns_per_obj", "core.decode_gbps", "core.objects_sent", "core.objects_received", "span.iter_s", "iter.samples", "serial.kryo_wall_s"} {
			if v := res.Metrics[name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", def.name, name, v)
			}
		}
		if r := res.Metrics["core.compact_wire_ratio"]; !(r > 0 && r < 1) {
			t.Errorf("%s: core.compact_wire_ratio = %v, want within (0, 1)", def.name, r)
		}
		isJob := strings.HasPrefix(def.name, "job-")
		if got := res.Metrics["dataflow.records"] > 0; got != isJob {
			t.Errorf("%s: dataflow.records > 0 is %v", def.name, got)
		}
		if def.name == "job-triangles-arena" {
			if res.Metrics["vm.buffer_peak_bytes"] != 0 || !(res.Metrics["arena.peak_bytes"] > 0) {
				t.Errorf("arena job: buffer peak %v (want 0), arena peak %v (want > 0)",
					res.Metrics["vm.buffer_peak_bytes"], res.Metrics["arena.peak_bytes"])
			}
		}

		var trace struct {
			TraceEvents []struct {
				Name string
				Args map[string]int64
			}
		}
		b, err := os.ReadFile(filepath.Join(out, "trace-"+def.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &trace); err != nil {
			t.Fatalf("%s: Chrome trace does not parse: %v", def.name, err)
		}
		roots := 0
		for _, e := range trace.TraceEvents {
			if e.Name == "iter" && e.Args["parent"] == -1 {
				roots++
			}
		}
		if roots != int(res.Metrics["iter.samples"]) {
			t.Errorf("%s: %d root spans in the trace, %v traced iterations", def.name, roots, res.Metrics["iter.samples"])
		}
	}
}

// TestTracedCountsRepeat runs one traced run twice: every per-layer count
// marked exact must come out identical.
func TestTracedCountsRepeat(t *testing.T) {
	skipUnlessMeasurable(t)
	def, err := workloadByName("job-pagerank")
	if err != nil {
		t.Fatal(err)
	}
	var runs [2]result
	for i := range runs {
		if runs[i], err = runTraced(def, 7, 0.1, quickSizes, t.TempDir()); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range perLayer {
		if a, b := runs[0].Metrics[d.name], runs[1].Metrics[d.name]; d.exact && a != b {
			t.Errorf("%s: %v then %v; an exact count must repeat", d.name, a, b)
		}
	}
}

// TestCorruptedChecksumCountsAsFailedOp corrupts the reference checksum: the
// iterations must land in failed ops and contribute no timing sample.
func TestCorruptedChecksumCountsAsFailedOp(t *testing.T) {
	skipUnlessMeasurable(t)
	x := &xfer{}
	if err := x.setup(1, quickSizes); err != nil {
		t.Fatal(err)
	}
	defer x.close()
	x.want ^= 1
	ph := measure(x, nil, func(done int, _ time.Duration) bool { return done < 3 })
	if ph.attempted != 3 || ph.failed != 3 || len(ph.walls) != 0 || ph.records != 0 {
		t.Fatalf("attempted=%d failed=%d samples=%d records=%d, want 3 3 0 0", ph.attempted, ph.failed, len(ph.walls), ph.records)
	}
	if len(ph.failures) == 0 || !strings.Contains(ph.failures[0], "checksum") {
		t.Errorf("failures = %q, want a checksum mismatch", ph.failures)
	}
	x.want ^= 1
	if ph := measure(x, nil, func(done int, _ time.Duration) bool { return done < 1 }); ph.failed != 0 {
		t.Errorf("restored checksum still fails: %q", ph.failures)
	}
}

func TestHygieneRefusesKnobs(t *testing.T) {
	for _, v := range hygieneVars {
		if os.Getenv(v) != "" {
			t.Skipf("%s is set in the test environment", v)
		}
	}
	if err := checkHygiene(); err != nil {
		t.Fatalf("clean environment refused: %v", err)
	}
	for _, v := range hygieneVars {
		t.Setenv(v, "1")
		if err := checkHygiene(); err == nil || !strings.Contains(err.Error(), v) {
			t.Errorf("%s=1 accepted (err=%v)", v, err)
		}
		t.Setenv(v, "")
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one sample = %v, %v", q1, q3)
	}
	if s := spread(ten); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", s)
	}
}

func TestHiPercentile(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	// 100 samples: ten lie beyond the 90th, so p90 = 90.
	if v, pct := hiPercentile(xs); v != 90 || pct != 90 {
		t.Errorf("hiPercentile(1..100) = %v at p%v, want 90 at p90", v, pct)
	}
	// 1000 samples reach p99.
	xs = xs[:0]
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	if v, pct := hiPercentile(xs); v != 990 || pct != 99 {
		t.Errorf("hiPercentile(1..1000) = %v at p%v, want 990 at p99", v, pct)
	}
	// Too few samples for a tail: the median, and said so.
	if v, pct := hiPercentile([]float64{5, 1, 3}); v != 3 || pct != 50 {
		t.Errorf("hiPercentile of 3 samples = %v at p%v, want the median at p50", v, pct)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{name: "iter", parent: -1, start: 0, dur: 100 * ms},
		{name: "encode", parent: 0, tid: tidSender, start: 10 * ms, dur: 50 * ms},
		{name: "decode", parent: 0, tid: tidReceiver, start: 40 * ms, dur: 50 * ms}, // overlaps encode by 20 ms
		{name: "late", parent: 0, start: 95 * ms, dur: 20 * ms},                     // clipped to the parent's end
	}}
	self := tr.selfTimes()
	// Children cover [10, 90) and [95, 100): 85 ms of the parent's 100.
	if self[0] != 15*ms {
		t.Errorf("root self time = %v, want 15ms", self[0])
	}
	if self[1] != 50*ms || self[2] != 50*ms {
		t.Errorf("leaf self times = %v, %v, want their durations", self[1], self[2])
	}
	if got := tr.selfByName()["encode"]; got != 0.05 {
		t.Errorf("selfByName[encode] = %v, want 0.05", got)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{name: "wall_s", better: "lower", bound: 0.10}
	higher := metricDef{name: "records_per_s", better: "higher", bound: 0.10}
	tight := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center, center * 0.995, center * 1.005, center, center, center, center}
	}
	for _, c := range []struct {
		d        metricDef
		old, new []float64
		want     string
	}{
		{lower, tight(1), tight(1.05), unchanged},
		{lower, tight(1), tight(1.2), regressed},
		{lower, tight(1), tight(0.8), improved},
		{higher, tight(100), tight(80), regressed},
		{higher, tight(100), tight(125), improved},
		{higher, tight(100), tight(95), unchanged},
		// Quartiles 15 % of the median apart: wider than the bound.
		{lower, []float64{0.9, 0.9, 0.9, 1, 1, 1, 1.1, 1.1, 1.1, 1.1}, tight(1.3), unresolved},
		{lower, tight(1), []float64{0.9, 0.9, 0.9, 1, 1, 1, 1.1, 1.1, 1.1, 1.1}, unresolved},
	} {
		if got := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("verdict(%s, median %v -> %v) = %s, want %s", c.d.name, median(c.old), median(c.new), got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	env := newEnvBlock(1, 10, quickSizes)
	file := func(wall, objects float64) resultFile {
		f := resultFile{Env: env}
		for _, w := range workloads {
			f.Runs = append(f.Runs,
				result{Workload: w.name, Metrics: map[string]float64{"wall_s": wall, "records_per_s": 1 / wall}},
				result{Workload: w.name, Traced: true, Metrics: map[string]float64{"core.objects_sent": objects, "core.encode_ns_per_obj": 100 * wall}})
		}
		return f
	}
	var out bytes.Buffer
	c, err := compare(&out, file(1, 500), file(1.02, 500))
	if err != nil {
		t.Fatal(err)
	}
	if c.verdicts[unchanged] != 2*len(workloads) || c.countsDiffered != 0 {
		t.Errorf("same code: verdicts %v, %d counts differ\n%s", c.verdicts, c.countsDiffered, out.String())
	}

	out.Reset()
	c, err = compare(&out, file(1, 500), file(1.5, 501))
	if err != nil {
		t.Fatal(err)
	}
	if c.verdicts[regressed] != 2*len(workloads) || c.countsDiffered != len(workloads) {
		t.Errorf("slower code: verdicts %v, %d counts differ", c.verdicts, c.countsDiffered)
	}
	// The per-layer diff names the layer that moved.
	if !strings.Contains(out.String(), "core.encode_ns_per_obj") || !strings.Contains(out.String(), "exact count differs") {
		t.Errorf("per-layer diff missing from:\n%s", out.String())
	}

	other := file(1, 500)
	other.Env.GOMAXPROCS++
	if _, err := compare(&out, file(1, 500), other); err == nil {
		t.Error("files measured under different env blocks were compared")
	}
	other = file(1, 500)
	other.Env.GitCommit = "another commit"
	if _, err := compare(&out, file(1, 500), other); err != nil {
		t.Errorf("a different commit alone must not block a comparison: %v", err)
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json and the tables the program
// reports from in step.
func TestManifestMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) || len(manifest.EndToEnd) != len(endToEnd) || len(manifest.PerLayer) != len(perLayer) {
		t.Fatalf("manifest lists %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d, %d",
			len(manifest.Workloads), len(manifest.EndToEnd), len(manifest.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		m := manifest.Workloads[i]
		if m.Name != w.name {
			t.Errorf("workload %d: manifest %q, program %q", i, m.Name, w.name)
		}
		if m.Why == "" || len(m.Why) > 200 || strings.Contains(m.Why, "\n") {
			t.Errorf("%s: why must be one line of 1 to 200 characters, is %q", w.name, m.Why)
		}
	}
	for i, d := range endToEnd {
		if m := manifest.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: manifest %+v, program %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := manifest.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: manifest %+v, program %+v", i, m, d)
		}
	}
	if manifest.RunSeconds < 1 || manifest.RunSeconds > 60 || len(manifest.Paths) != 1 || manifest.Paths[0] != "benchmark" {
		t.Errorf("manifest run_seconds=%d paths=%v", manifest.RunSeconds, manifest.Paths)
	}
}
