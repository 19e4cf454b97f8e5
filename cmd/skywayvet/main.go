// Command skywayvet is the project's custom vet multichecker: it runs the
// skyway-specific static analyzers (addrarith, rawslab, staleaddr,
// writebarrier, wiretaint, atomicmix) over the given package patterns and
// exits nonzero on any finding.
//
// Usage:
//
//	go run ./cmd/skywayvet ./...
//	go run ./cmd/skywayvet -list
//	go run ./cmd/skywayvet -json ./...
//	go run ./cmd/skywayvet -sarif ./... > skywayvet.sarif
//	go run ./cmd/skywayvet -run staleaddr,writebarrier ./internal/vm/...
//
// Selecting a subset with -run changes which checks run but never the
// exit-code contract or the -json/-sarif schema. It needs only the Go
// toolchain: packages are loaded via `go list -export` and type-checked
// from source against the toolchain's export data.
//
// Exit codes: 0 clean, 1 findings reported, 2 usage error (unknown
// analyzer, -json with -sarif), 3 the packages failed to load or
// type-check.
package main

import (
	"encoding/json"
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
	exitUsage     = 2
	exitLoadError = 3
)

// report is the -json output shape.
type report struct {
	Findings []jsonFinding  `json:"findings"`
	Counts   map[string]int `json:"counts"`
	Total    int            `json:"total"`
}

type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit findings as JSON on stdout")
	asSARIF := flag.Bool("sarif", false, "emit findings as SARIF 2.1.0 on stdout")
	flag.Parse()

	all := analyzers.All()
	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *asJSON && *asSARIF {
		fmt.Fprintln(os.Stderr, "skywayvet: -json and -sarif are mutually exclusive")
		os.Exit(exitUsage)
	}

	selected := all
	if *run != "" {
		byName := make(map[string]*framework.Analyzer, len(all))
		for _, a := range all {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*run, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "skywayvet: unknown analyzer %q\n", name)
				os.Exit(exitUsage)
			}
			selected = append(selected, a)
		}
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
	findings, err := framework.RunAll(pkgs, selected)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skywayvet: %v\n", err)
		os.Exit(exitLoadError)
	}

	counts := make(map[string]int, len(selected))
	for _, f := range findings {
		counts[f.Analyzer]++
	}

	if *asSARIF {
		if err := writeSARIF(os.Stdout, selected, findings); err != nil {
			fmt.Fprintf(os.Stderr, "skywayvet: %v\n", err)
			os.Exit(exitLoadError)
		}
	} else if *asJSON {
		rep := report{Findings: []jsonFinding{}, Counts: counts, Total: len(findings)}
		for _, f := range findings {
			rep.Findings = append(rep.Findings, jsonFinding{
				Analyzer: f.Analyzer,
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Column:   f.Pos.Column,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "skywayvet: %v\n", err)
			os.Exit(exitLoadError)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
		// Per-analyzer summary, in the analyzers' registration order; the
		// framework's own suppression-audit findings come last.
		parts := make([]string, 0, len(selected)+1)
		for _, a := range selected {
			if n := counts[a.Name]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s %d", a.Name, n))
			}
		}
		if n := counts[framework.SuppressionAnalyzerName]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s %d", framework.SuppressionAnalyzerName, n))
		}
		switch {
		case len(findings) == 0:
			fmt.Printf("skywayvet: %d packages, %d analyzers, no findings\n", len(pkgs), len(selected))
		default:
			fmt.Printf("skywayvet: %d findings (%s)\n", len(findings), strings.Join(parts, ", "))
		}
	}

	if len(findings) > 0 {
		os.Exit(exitFindings)
	}
	os.Exit(exitClean)
}
