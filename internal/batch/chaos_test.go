package batch

import (
	"errors"
	"slices"
	"testing"

	"skyway/internal/core"
	"skyway/internal/dataflow"
	"skyway/internal/datagen"
	"skyway/internal/fault"
	"skyway/internal/serial"
	"skyway/internal/verify"
)

// liveArenaRegions counts off-heap regions still mapped on any task manager.
func liveArenaRegions(c *Cluster) int {
	n := 0
	for _, ex := range c.Execs {
		n += ex.RT.Arena.Regions()
	}
	return n
}

// pinnedHandles returns each task manager's live root count (handles plus
// root-table slots).
func pinnedHandles(c *Cluster) []int {
	n := make([]int, len(c.Execs))
	for i, ex := range c.Execs {
		n[i] = ex.RT.GC.Stats().HandleCount
	}
	return n
}

// TestChaosQueries runs a one-exchange and a three-exchange query with the
// shuffle failpoints armed, heap verifier on. Flink exchanges are dataflow
// shuffles, so the invariant is the dataflow chaos matrix's: every run ends
// in the fault-free digest or a structured error — never a panic — and
// leaves behind no pinned handle and no live arena region. The tuple wire
// carries no checksum, so the data-damaging points run under Skyway only
// (eager and arena); a dying task is serializer-independent.
func TestChaosQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is not a -short test")
	}
	wasOn := verify.SetEnabled(true)
	defer verify.SetEnabled(wasOn)
	fault.Seed(0xC0FFEE)
	defer fault.Seed(0)
	gen := datagen.GenTPCH(0.2, 11)

	// arena forces Skyway's lazy off-heap receive path on or off (its
	// default is the SKYWAY_ARENA knob).
	run := func(t *testing.T, q Query, serializer string, arena bool, spec string) (float64, error) {
		t.Helper()
		c := newTestCluster(t, dataflow.Config{}, serializer)
		if sky, ok := c.Codec.(*serial.SkywayCodec); ok {
			sky.Arena = arena
		}
		db, err := Load(c, gen)
		if err != nil {
			t.Fatal(err)
		}
		loaded := pinnedHandles(c)
		if err := fault.Configure(spec); err != nil {
			t.Fatal(err)
		}
		defer fault.Reset()
		_, digest, err := Run(c, q, db)
		if n := pinnedHandles(c); !slices.Equal(n, loaded) {
			t.Errorf("roots per task manager after the query %v, before %v", n, loaded)
		}
		if n := liveArenaRegions(c); n != 0 {
			t.Errorf("%d arena regions live after the query", n)
		}
		db.Free()
		return digest, err
	}
	structured := func(err error) bool {
		var abort *dataflow.StageAbortError
		var de *core.DecodeError
		var fe *fault.Error
		return errors.As(err, &abort) || errors.As(err, &de) || errors.As(err, &fe)
	}

	type variant struct {
		name, serializer string
		arena            bool
	}
	skyway := []variant{{"skyway", "skyway", false}, {"skyway-arena", "skyway", true}}
	points := []struct {
		name     string
		variants []variant
	}{
		{fault.DataflowFetchTorn, skyway},
		{fault.CoreChunkBitflip, skyway},
		{fault.DataflowTaskDie, append([]variant{{"flink-builtin", "flink-builtin", false}}, skyway...)},
	}
	for _, q := range []Query{QA, QC} {
		want, err := run(t, q, "flink-builtin", false, "")
		if err != nil {
			t.Fatalf("fault-free %s: %v", q, err)
		}
		for _, p := range points {
			for _, v := range p.variants {
				for _, trigger := range []string{":on*times=1", ":1in3"} {
					t.Run(string(q)+"/"+v.name+"/"+p.name+trigger, func(t *testing.T) {
						got, err := run(t, q, v.serializer, v.arena, p.name+trigger)
						switch {
						case err == nil && got != want:
							t.Fatalf("silent corruption: digest %v, fault-free %v", got, want)
						case err != nil && !structured(err):
							t.Fatalf("unstructured failure: %T: %v", err, err)
						case err != nil && p.name != fault.DataflowTaskDie && trigger == ":on*times=1":
							// One damaged block is what the re-fetch ladder is for.
							t.Fatalf("transient damage was not recovered: %v", err)
						case err != nil:
							t.Logf("structured abort: %v", err)
						}
					})
				}
			}
		}
	}
}
