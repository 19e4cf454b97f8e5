// Command flinkbench reproduces the Flink side of the evaluation: the
// QA–QE query matrix under the built-in serializers and Skyway
// (Figure 8(b)), the query inventory (Table 3), and the normalized summary
// (Table 4).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"skyway/internal/batch"
	"skyway/internal/experiments"
	"skyway/internal/fault"
	"skyway/internal/obs"
)

func main() {
	var (
		list      = flag.Bool("list", false, "Table 3: query descriptions")
		fig8b     = flag.Bool("fig8b", false, "Figure 8(b): QA-QE under built-in and Skyway serializers")
		table4    = flag.Bool("table4", false, "Table 4: normalized summary (implies -fig8b)")
		sf        = flag.Float64("sf", 1.0, "TPC-H scale factor (1.0 ≈ 60k lineitems)")
		benchJSON = flag.String("bench-json", "", "write the benchmark trajectory (fig8b entries) to this JSON file")
		faultSpec = flag.String("fault", "", "failpoint plan, e.g. 'core.chunk.bitflip:1in100' (grammar in internal/fault; also read from SKYWAY_FAULT)")
	)
	flag.Parse()
	if *faultSpec != "" {
		if err := fault.Configure(*faultSpec); err != nil {
			log.Fatalf("-fault: %v", err)
		}
	}
	if fault.Active() {
		defer fault.Report(os.Stdout)
	}
	if !*list && !*fig8b && !*table4 && *benchJSON == "" {
		*list, *fig8b, *table4 = true, true, true
	}
	if *benchJSON != "" {
		*fig8b = true
	}
	defer obs.DumpIfEnabled()

	if *list {
		fmt.Println("Table 3 — queries")
		for _, q := range batch.AllQueries() {
			fmt.Printf("  %s  %s\n", q, batch.Describe(q))
		}
		fmt.Println()
	}

	if !*fig8b && !*table4 && *benchJSON == "" {
		return
	}
	cfg := experiments.DefaultFlinkConfig()
	cfg.SF = *sf
	cells, err := experiments.RunFlinkMatrix(cfg, batch.AllQueries())
	if err != nil {
		log.Fatal(err)
	}

	if *fig8b {
		fmt.Printf("Figure 8(b) — Flink QA-QE (sf=%.2f, 3 task managers)\n", *sf)
		experiments.PrintBreakdown(os.Stdout, cells)
		fmt.Println()
	}

	if *benchJSON != "" {
		f := experiments.NewBenchFile("flink", cells)
		if err := f.Write(*benchJSON); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("benchmark trajectory (%d entries) written to %s\n", len(f.Entries), *benchJSON)
	}

	if *table4 {
		fmt.Println("Table 4 — Skyway normalized to Flink's built-in serializers (lo ~ hi (geomean))")
		fmt.Printf("  %s\n", experiments.Table4(cells).Row())
		fmt.Println("  paper:  Overall 0.71~0.88 (0.81), Ser (0.77), Des (0.75), Size 1.23~2.03 (1.68)")
	}
}
