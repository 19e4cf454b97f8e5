package fault_test

import (
	"testing"

	"skyway/internal/datagen"
	"skyway/internal/experiments"
	"skyway/internal/fault"
	"skyway/internal/verify"
)

// chaosRunArena is chaosRun over the skyway-arena codec: the same 4-executor
// WordCount pipeline, with received segments staged lazily in off-heap
// regions and read through bounds-checked handles.
func chaosRunArena(t *testing.T, spec string) (float64, error) {
	return chaosRunArenaApp(t, experiments.WC, spec)
}

// chaosRunArenaApp is chaosRunArena for any Spark workload.
func chaosRunArenaApp(t *testing.T, app experiments.SparkApp, spec string) (float64, error) {
	t.Helper()
	if err := fault.Configure(spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)
	g, err := datagen.GraphByName("LiveJournal", chaosConfig().GraphScale)
	if err != nil {
		t.Fatal(err)
	}
	info, runErr := experiments.SparkRunInfo(app, g.Generate(), "skyway-arena", chaosConfig())
	return info.Digest, runErr
}

// TestChaosMatrixArena runs the chaos invariant over the lazy decode path:
// the fault-free arena digest must be bit-identical to the eager digest
// (lazy absolutization is a pure receive-side policy), and under every
// arena-relevant failpoint the job either reproduces that digest or fails
// with a structured error — never a panic, never silent corruption, never a
// read outside a region.
func TestChaosMatrixArena(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is not a -short test")
	}
	wasOn := verify.SetEnabled(true)
	defer verify.SetEnabled(wasOn)
	fault.Seed(0xC0FFEE)
	defer fault.Seed(0)

	eager, err := chaosRun(t, "")
	if err != nil {
		t.Fatalf("fault-free eager run: %v", err)
	}
	fault.Reset()
	want, err := chaosRunArena(t, "")
	if err != nil {
		t.Fatalf("fault-free arena run: %v", err)
	}
	if want != eager {
		t.Fatalf("arena digest %v diverges from eager digest %v on the fault-free run", want, eager)
	}

	// The arena failpoints plus the wire/chunk damage points the lazy
	// validation scan must absorb exactly like the eager one.
	points := []string{
		fault.ArenaMapFail,
		fault.ArenaPromoteFail,
		fault.ArenaRegionPrematureFree,
		fault.CoreChunkBitflip,
		fault.CoreChunkTruncate,
		fault.CoreChunkBadTID,
		fault.CoreChunkBadPtr,
		fault.CoreAllocBuffer,
	}
	modes := []struct {
		name, trigger string
	}{
		{"transient", ":on*times=1"},
		{"persistent", ":1in3"},
	}
	for _, point := range points {
		for _, mode := range modes {
			point, mode := point, mode
			t.Run(point+"/"+mode.name, func(t *testing.T) {
				got, err := chaosRunArena(t, point+mode.trigger)
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

// TestChaosArenaBulkRead holds the bulk array read to the premature-free row
// of the matrix: TriangleCounting's reducer copies every shipped adjacency
// array out of its region in one ArrayLongs, so a region reclaimed under the
// live stream must still end in the fault-free count or a structured abort —
// the copy must never run over a mapping that is gone.
func TestChaosArenaBulkRead(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is not a -short test")
	}
	wasOn := verify.SetEnabled(true)
	defer verify.SetEnabled(wasOn)
	fault.Seed(0xC0FFEE)
	defer fault.Seed(0)

	want, err := chaosRunArenaApp(t, experiments.TC, "")
	if err != nil {
		t.Fatalf("fault-free arena run: %v", err)
	}
	for _, trigger := range []string{":on*times=1", ":1in3"} {
		t.Run(fault.ArenaRegionPrematureFree+trigger, func(t *testing.T) {
			got, err := chaosRunArenaApp(t, experiments.TC, fault.ArenaRegionPrematureFree+trigger)
			if fault.Fired(fault.ArenaRegionPrematureFree) == 0 {
				t.Fatal("the failpoint never fired")
			}
			if err != nil {
				if !structuredChaosError(err) {
					t.Fatalf("unstructured failure: %T: %v", err, err)
				}
				t.Logf("structured abort: %v", err)
				return
			}
			if got != want {
				t.Fatalf("silent corruption: %v triangles, fault-free %v", got, want)
			}
		})
	}
}

// TestArenaFailpointsFire proves the new failpoints sit on live paths: a
// shuffle-heavy arena run under an always-on trigger must actually evaluate
// arena.map.fail and arena.region.premature-free (promote only fires when a
// workload mutates received records, which WordCount does not — its firing
// is covered by core's TestArenaPromoteFailpoint).
func TestArenaFailpointsFire(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is not a -short test")
	}
	fault.Seed(0xC0FFEE)
	defer fault.Seed(0)
	for _, point := range []string{fault.ArenaMapFail, fault.ArenaRegionPrematureFree} {
		point := point
		t.Run(point, func(t *testing.T) {
			_, err := chaosRunArena(t, point+":on*times=1")
			if fault.Fired(point) == 0 {
				t.Fatalf("%s never fired under the arena codec (run err: %v); the failpoint is dead", point, err)
			}
		})
	}
}
