// Command skywayvet is the project's custom vet multichecker: it runs the
// skyway-specific static analyzers (addrarith, rawslab, staleaddr,
// writebarrier, wiretaint, atomicmix) over the given package patterns and
// exits nonzero on any finding.
//
// Usage:
//
//	go run ./cmd/skywayvet ./...
//	go run ./cmd/skywayvet -list
//	go run ./cmd/skywayvet -sarif ./... > skywayvet.sarif
//
// It needs only the Go toolchain: packages are loaded via `go list -export`
// and type-checked from source against the toolchain's export data.
//
// Exit codes: 0 clean, 1 findings reported, 2 bad flags (the flag package's
// own exit), 3 the packages failed to load or type-check.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"skyway/internal/analyzers"
	"skyway/internal/analyzers/framework"
)

const (
	exitClean     = 0
	exitFindings  = 1
	exitLoadError = 3
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	asSARIF := flag.Bool("sarif", false, "emit findings as SARIF 2.1.0 on stdout")
	flag.Parse()

	all := analyzers.All()
	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := framework.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skywayvet: %v\n", err)
		os.Exit(exitLoadError)
	}
	findings, err := framework.RunAll(pkgs, all)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skywayvet: %v\n", err)
		os.Exit(exitLoadError)
	}

	if *asSARIF {
		if err := writeSARIF(os.Stdout, all, findings); err != nil {
			fmt.Fprintf(os.Stderr, "skywayvet: %v\n", err)
			os.Exit(exitLoadError)
		}
	} else {
		counts := make(map[string]int, len(all))
		for _, f := range findings {
			fmt.Println(f)
			counts[f.Analyzer]++
		}
		// Per-analyzer summary, in the analyzers' registration order; the
		// framework's own suppression-audit findings come last.
		parts := make([]string, 0, len(all)+1)
		for _, a := range all {
			if n := counts[a.Name]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s %d", a.Name, n))
			}
		}
		if n := counts[framework.SuppressionAnalyzerName]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s %d", framework.SuppressionAnalyzerName, n))
		}
		switch {
		case len(findings) == 0:
			fmt.Printf("skywayvet: %d packages, %d analyzers, no findings\n", len(pkgs), len(all))
		default:
			fmt.Printf("skywayvet: %d findings (%s)\n", len(findings), strings.Join(parts, ", "))
		}
	}

	if len(findings) > 0 {
		os.Exit(exitFindings)
	}
	os.Exit(exitClean)
}
