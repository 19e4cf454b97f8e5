package fault_test

import (
	"testing"

	"skyway/internal/fault"
	"skyway/internal/verify"
)

// TestChaosMatrixArena runs the chaos invariant over the lazy decode path,
// the skyway-arena codec: received segments are staged lazily in off-heap
// regions and read through bounds-checked handles. The fault-free arena
// digest must be bit-identical to the eager digest (lazy absolutization is
// a pure receive-side policy), and under every arena-relevant failpoint the
// job either reproduces that digest or fails with a structured error —
// never a panic, never silent corruption, never a read outside a region.
func TestChaosMatrixArena(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is not a -short test")
	}
	wasOn := verify.SetEnabled(true)
	defer verify.SetEnabled(wasOn)
	fault.Seed(0xC0FFEE)
	defer fault.Seed(0)

	eager, err := chaosRun(t, "skyway", "", 0)
	if err != nil {
		t.Fatalf("fault-free eager run: %v", err)
	}
	fault.Reset()
	want, err := chaosRun(t, "skyway-arena", "", 0)
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
				got, err := chaosRun(t, "skyway-arena", point+mode.trigger, 0)
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

// TestArenaFailpointsFire proves arena.map.fail sits on a live path: a
// shuffle-heavy arena run under an always-on trigger must actually evaluate
// it (promote only fires when a workload mutates received records, which
// WordCount does not — its firing is covered by core's
// TestArenaPromoteFailpoint).
func TestArenaFailpointsFire(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is not a -short test")
	}
	fault.Seed(0xC0FFEE)
	defer fault.Seed(0)
	t.Run(fault.ArenaMapFail, func(t *testing.T) {
		_, err := chaosRun(t, "skyway-arena", fault.ArenaMapFail+":on*times=1", 0)
		if fault.Fired(fault.ArenaMapFail) == 0 {
			t.Fatalf("%s never fired under the arena codec (run err: %v); the failpoint is dead", fault.ArenaMapFail, err)
		}
	})
}
