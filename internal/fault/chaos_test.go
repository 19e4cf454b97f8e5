package fault_test

import (
	"errors"
	"testing"

	"skyway/internal/core"
	"skyway/internal/dataflow"
	"skyway/internal/datagen"
	"skyway/internal/fault"
	"skyway/internal/klass"
	"skyway/internal/serial"
	"skyway/internal/verify"
	"skyway/internal/vm"
)

// The chaos matrix: a real 4-executor Spark pipeline (WordCount over the
// Skyway codec — the full send/receive/absolutize path), its executors
// running at once, is run once per catalog failpoint, in a transient and a
// persistent mode, with the heap invariant verifier armed. The invariant
// under every injection:
//
//   - the job either completes with a digest bit-identical to the
//     fault-free run (the fault was absorbed by a retry or was pure delay),
//   - or fails with a STRUCTURED error (*core.DecodeError,
//     *dataflow.StageAbortError, *fault.Error, or vm.ErrOOM),
//   - and it never panics and never trips the heap verifier.
//
// Wrong answers and corrupted heaps are the two outcomes Skyway's hardened
// decode path exists to rule out; this is the test that says so.

// chaosWorkers is the matrix cluster's executor count.
const chaosWorkers = 4

// chaosRun runs WordCount on a fresh 4-executor cluster over codecName with
// the failpoints of spec armed, and returns the word total. Heap, codec
// registration, network model, input lines and digest are those of the WC
// cell of experiments.SparkRunInfo at graph scale 0.02. Unlike the figures'
// cluster it runs slots task slots: 0, the default, runs every executor at
// once, so a failpoint fires while executors and their sender streams run
// concurrently; 1 runs one executor at a time in a fixed order.
func chaosRun(t *testing.T, codecName, spec string, slots int) (int64, error) {
	t.Helper()
	if err := fault.Configure(spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)
	g, err := datagen.GraphByName("LiveJournal", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	lines := datagen.TextSpec{Lines: g.Vertices * 2, WordsPerLine: 12, Vocabulary: 20000, Seed: g.Seed}.Generate()
	parts := make([][]string, chaosWorkers)
	for i, l := range lines {
		parts[i%chaosWorkers] = append(parts[i%chaosWorkers], l)
	}
	codec, err := serial.ByName(codecName, dataflow.WorkloadRegistration())
	if err != nil {
		t.Fatal(err)
	}
	cp := klass.NewPath()
	dataflow.WorkloadClasses(cp)
	c, err := dataflow.NewCluster(cp, dataflow.Config{Workers: chaosWorkers, ParallelTasks: slots}, codec)
	if err != nil {
		return 0, err
	}
	_, total, err := dataflow.RunWordCount(c, parts)
	return total, err
}

// structuredChaosError reports whether err belongs to the closed set of
// failure shapes the degradation ladder is allowed to surface.
func structuredChaosError(err error) bool {
	if _, ok := core.AsDecodeError(err); ok {
		return true
	}
	var abort *dataflow.StageAbortError
	if errors.As(err, &abort) {
		return true
	}
	var fe *fault.Error
	if errors.As(err, &fe) {
		return true
	}
	return errors.Is(err, vm.ErrOOM)
}

func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is not a -short test")
	}
	wasOn := verify.SetEnabled(true)
	defer verify.SetEnabled(wasOn)
	fault.Seed(0xC0FFEE)
	defer fault.Seed(0)

	want, err := chaosRun(t, "skyway", "", 0)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}

	modes := []struct {
		name, trigger string
	}{
		{"transient", ":on*times=1"},
		{"persistent", ":1in3"},
	}
	for _, point := range fault.Catalog() {
		for _, mode := range modes {
			point, mode := point, mode
			t.Run(point+"/"+mode.name, func(t *testing.T) {
				got, err := chaosRun(t, "skyway", point+mode.trigger, 0)
				if err != nil {
					if !structuredChaosError(err) {
						t.Fatalf("unstructured failure under %s%s: %T: %v", point, mode.trigger, err, err)
					}
					t.Logf("%s%s: structured abort: %v", point, mode.trigger, err)
					return
				}
				if got != want {
					t.Fatalf("silent corruption: digest under %s%s = %v, fault-free = %v",
						point, mode.trigger, got, want)
				}
			})
		}
	}
}

// TestChaosSeedDeterminism: the same seed and spec must fire the same
// failpoints the same number of times — chaos runs are replayable. A
// failpoint's draws are taken in evaluation order, which concurrent
// executors interleave differently on every run, so this cluster runs one
// slot.
func TestChaosSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos determinism is not a -short test")
	}
	counts := func() int64 {
		fault.Seed(0xDECAF)
		defer fault.Seed(0)
		_, _ = chaosRun(t, "skyway", fault.DataflowFetchTorn+":1in4", 1)
		return fault.Fired(fault.DataflowFetchTorn)
	}
	a := counts()
	fault.Reset()
	b := counts()
	if a != b || a == 0 {
		t.Fatalf("torn-fetch firings not deterministic: %d then %d", a, b)
	}
}
