package analyzers_test

import (
	"strings"
	"sync"
	"testing"

	"skyway/internal/analyzers"
	"skyway/internal/analyzers/framework"
)

// Each analyzer proves itself against a fixture package holding positive
// (`// want`-annotated) and negative cases — the analysistest contract.

const fixtureRoot = "skyway/internal/analyzers/testdata/src/"

func TestAddrArithFixture(t *testing.T) {
	runFixture(t, analyzers.AddrArith, fixtureRoot+"addrarith")
}

func TestRawSlabFixture(t *testing.T) {
	runFixture(t, analyzers.RawSlab, fixtureRoot+"rawslab")
}

func TestStaleAddrFixture(t *testing.T) {
	runFixture(t, analyzers.StaleAddr, fixtureRoot+"staleaddr")
}

func TestWriteBarrierFixture(t *testing.T) {
	runFixture(t, analyzers.WriteBarrier, fixtureRoot+"writebarrier")
}

func TestWireTaintFixture(t *testing.T) {
	runFixture(t, analyzers.WireTaint, fixtureRoot+"wiretaint")
}

func TestAtomicMixFixture(t *testing.T) {
	runFixture(t, analyzers.AtomicMix, fixtureRoot+"atomicmix")
}

// loadRepo loads the production tree — non-test files, no testdata — once
// for the two tests over it.
var loadRepo = sync.OnceValues(func() ([]*framework.Package, error) {
	return framework.Load(".", "skyway/...")
})

// TestSuiteRunsCleanOnRepo is the acceptance gate: the production tree must
// carry zero findings, so a regression against any slab-layer rule fails CI
// here as well as in `go run ./cmd/skywayvet ./...`.
func TestSuiteRunsCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := loadRepo()
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

// allowCeiling is the number of //skyway:allow directives in production
// code. ROADMAP's guardrail is that it goes down, not up: lower it with every
// suppression removed, and raise it only with the justification in review.
const allowCeiling = 2

// TestAllowDirectiveCeiling keeps zero findings from being reached by
// suppressing them: a new directive in the production tree fails here.
func TestAllowDirectiveCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := loadRepo()
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	var sites []string
	for _, p := range pkgs {
		for _, f := range p.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					// The same shape the framework's parser accepts: the
					// prefix, then a blank or the paren form.
					if rest, ok := strings.CutPrefix(c.Text, "//skyway:allow"); ok && rest != "" && strings.ContainsRune(" \t(", rune(rest[0])) {
						sites = append(sites, p.Fset.Position(c.Pos()).String())
					}
				}
			}
		}
	}
	if len(sites) > allowCeiling {
		t.Errorf("%d //skyway:allow directives in production code, ceiling %d:\n%s", len(sites), allowCeiling, strings.Join(sites, "\n"))
	}
	if len(sites) < allowCeiling {
		t.Errorf("%d //skyway:allow directives in production code: lower allowCeiling from %d to hold the gain", len(sites), allowCeiling)
	}
}
