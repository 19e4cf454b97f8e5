package analyzers_test

import (
	"testing"

	"skyway/internal/analyzers"
	"skyway/internal/analyzers/framework"
)

// Each analyzer proves itself against a fixture package holding positive
// (`// want`-annotated) and negative cases — the analysistest contract.

const fixtureRoot = "skyway/internal/analyzers/testdata/src/"

func TestAddrArithFixture(t *testing.T) {
	framework.RunFixture(t, analyzers.AddrArith, fixtureRoot+"addrarith")
}

func TestRawSlabFixture(t *testing.T) {
	framework.RunFixture(t, analyzers.RawSlab, fixtureRoot+"rawslab")
}

func TestStaleAddrFixture(t *testing.T) {
	framework.RunFixture(t, analyzers.StaleAddr, fixtureRoot+"staleaddr")
}

func TestWriteBarrierFixture(t *testing.T) {
	framework.RunFixture(t, analyzers.WriteBarrier, fixtureRoot+"writebarrier")
}

func TestWireTaintFixture(t *testing.T) {
	framework.RunFixture(t, analyzers.WireTaint, fixtureRoot+"wiretaint")
}

func TestAtomicMixFixture(t *testing.T) {
	framework.RunFixture(t, analyzers.AtomicMix, fixtureRoot+"atomicmix")
}

// TestSuiteRunsCleanOnRepo is the acceptance gate: the production tree must
// carry zero findings, so a regression against any slab-layer rule fails CI
// here as well as in `go run ./cmd/skywayvet ./...`.
func TestSuiteRunsCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := framework.Load(".", "skyway/...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	findings, err := framework.RunAll(pkgs, analyzers.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
