// TPC-H query answering on the mini-Flink batch engine (§5.3): runs one of
// the QA–QE queries under both Flink's built-in schema-specialized
// serializers and Skyway, printing the breakdown side by side.
package main

import (
	"flag"
	"fmt"
	"log"

	"skyway/internal/batch"
	"skyway/internal/datagen"
	"skyway/internal/experiments"
)

func main() {
	query := flag.String("query", "QC", "query to run (QA..QE, or 'all')")
	sf := flag.Float64("sf", 0.5, "TPC-H scale factor (1.0 ≈ 60k lineitems)")
	workers := flag.Int("workers", 3, "task manager count")
	flag.Parse()

	var queries []batch.Query
	if *query == "all" {
		queries = batch.AllQueries()
	} else {
		queries = []batch.Query{batch.Query(*query)}
	}

	gen := datagen.GenTPCH(*sf, 2024)
	fmt.Printf("dataset: sf=%.2f — %d lineitems, %d orders, %d customers\n\n",
		*sf, len(gen.LineItems), len(gen.Orders), len(gen.Customers))

	cfg := experiments.DefaultFlinkConfig()
	cfg.Workers = *workers
	for _, q := range queries {
		fmt.Printf("%s: %s\n", q, batch.Describe(q))
		for _, ser := range batch.Serializers() {
			info, err := experiments.FlinkRunInfo(q, gen, ser, cfg)
			if err != nil {
				log.Fatalf("%s/%s: %v", ser, q, err)
			}
			fmt.Printf("  %-14s %s\n                 result digest %.2f\n", ser, info.Breakdown, info.Digest)
		}
		fmt.Println()
	}
}
