// Command benchcmp sets a freshly generated paper-matrix file against the
// checked-in one (BENCH_spark.json / BENCH_flink.json) and exits non-zero
// when a baseline entry is missing from the current run or any of its exact
// columns — shuffle_bytes, remote_bytes, records, buffer_peak, gc_pauses,
// gc_full_gcs — differs. The time columns are printed as current/baseline
// ratios for information only; time is gated by `go run ./benchmark -compare`.
package main

import (
	"fmt"
	"log"
	"os"

	"skyway/internal/experiments"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintf(os.Stderr, "usage: benchcmp base.json current.json\n")
		os.Exit(2)
	}
	base, err := experiments.ReadBenchFile(os.Args[1])
	if err != nil {
		log.Fatalf("benchcmp: %v", err)
	}
	cur, err := experiments.ReadBenchFile(os.Args[2])
	if err != nil {
		log.Fatalf("benchcmp: %v", err)
	}
	failed := 0
	for _, d := range experiments.CompareBench(base, cur) {
		if d.Failed() {
			fmt.Printf("DIFFERS  %-40s %v\n", d.Key, d.Mismatch)
			failed++
			continue
		}
		fmt.Printf("same     %-40s total %s  gc pause %s\n", d.Key, ratio(d.Total), ratio(d.GCPause))
	}
	if failed > 0 {
		fmt.Printf("benchcmp: %d of %d entries are missing or differ from %s in an exact column\n", failed, len(base.Entries), os.Args[1])
		os.Exit(1)
	}
	fmt.Printf("benchcmp: %d entries match %s in every exact column (time ratios are information, not a gate)\n", len(base.Entries), os.Args[1])
}

// ratio formats a current/baseline time ratio; 0 means the baseline had no
// time in that column.
func ratio(r float64) string {
	if r == 0 {
		return "    -"
	}
	return fmt.Sprintf("%.2fx", r)
}
