// Command sparkbench reproduces the Spark side of the evaluation: the §2.2
// motivation breakdown (Figure 3), the serializer matrix (Figure 8(a)), the
// normalized summary (Table 2), the dataset inventory (Table 1), the §5.2
// byte-composition analysis, and the memory-overhead measurement.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"skyway/internal/datagen"
	"skyway/internal/experiments"
	"skyway/internal/fault"
	"skyway/internal/obs"
)

func main() {
	var (
		fig3      = flag.Bool("fig3", false, "Figure 3: TC/LiveJournal breakdown under Kryo and Java")
		fig8a     = flag.Bool("fig8a", false, "Figure 8(a): apps x graphs x serializers")
		table1    = flag.Bool("table1", false, "Table 1: graph inputs")
		table2    = flag.Bool("table2", false, "Table 2: normalized summary (implies -fig8a)")
		bytesA    = flag.Bool("bytes", false, "shuffle bytes per record: full image, wire, header-free floor, kryo")
		mem       = flag.Bool("mem", false, "memory overhead of the baddr header word")
		scale     = flag.Float64("scale", 0.15, "graph scale (1.0 = 1/100 of the paper's sizes)")
		apps      = flag.String("apps", "WC,PR,CC,TC", "comma-separated app subset for -fig8a")
		heapMB    = flag.Int("heap", 0, "executor heap size in MB (0 = per-experiment default: 96 for the memory-pressured -fig3 motivation run, 1024 elsewhere)")
		parallel  = flag.Int("parallel", 0, "concurrent executor tasks per stage (0/1 = sequential, -1 = one per worker)")
		benchJSON = flag.String("bench-json", "", "write the benchmark trajectory (fig3 + fig8a entries) to this JSON file")
	)
	flag.Parse()
	if fault.Active() {
		defer fault.Report(os.Stdout)
	}
	if !*fig3 && !*fig8a && !*table1 && !*table2 && !*bytesA && !*mem && *benchJSON == "" {
		*fig3, *table1, *table2, *bytesA, *mem = true, true, true, true, true
	}
	if *benchJSON != "" {
		// The trajectory file needs both figure data sets.
		*fig3 = true
		*fig8a = true
	}
	defer obs.DumpIfEnabled()

	cfg := experiments.DefaultSparkConfig()
	cfg.GraphScale = *scale
	cfg.HeapMB = *heapMB
	cfg.Parallel = *parallel
	if cfg.HeapMB == 0 {
		cfg.HeapMB = 1024
	}
	// Figure 3 is the §2.2 motivation experiment: the paper measured it on
	// memory-pressured executors where GC pauses and S/D costs dominate, so
	// its default heap is deliberately tight.
	fig3Cfg := cfg
	if *heapMB == 0 {
		fig3Cfg.HeapMB = 96
	}

	if *table1 {
		fmt.Println("Table 1 — graph inputs (scaled)")
		fmt.Printf("%-14s %12s %12s %10s  %s\n", "graph", "#vertices", "#edges", "maxdeg", "description")
		for _, spec := range datagen.PaperGraphs(*scale) {
			g := spec.Generate()
			fmt.Printf("%-14s %12d %12d %10d  %s\n", spec.Name, g.N, g.M, g.MaxDegree(), spec.Description)
		}
		fmt.Println()
	}

	var fig3Cells []experiments.Cell
	if *fig3 {
		fmt.Println("Figure 3 — Spark S/D cost: TriangleCounting over LiveJournal (3 workers)")
		var err error
		fig3Cells, err = experiments.RunFig3(fig3Cfg)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintBreakdown(os.Stdout, fig3Cells)
		for _, r := range fig3Cells {
			fmt.Printf("  %-6s S/D share of total: %.1f%% (paper: >30%%)\n", r.Serializer, r.Breakdown.SDShare()*100)
		}
		fmt.Println()
	}

	var cells []experiments.Cell
	if *fig8a || *table2 {
		appList := parseApps(*apps)
		var err error
		cells, err = experiments.RunSparkMatrix(cfg, datagen.PaperGraphs(*scale), appList)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *fig8a {
		fmt.Println("Figure 8(a) — Spark runtime breakdown per app x graph x serializer")
		experiments.PrintBreakdown(os.Stdout, cells)
		fmt.Println()
	}
	if *table2 {
		fmt.Println("Table 2 — performance normalized to the Java serializer (lo ~ hi (geomean); lower is better, Size > 1 = more bytes)")
		for _, ser := range []string{"kryo", "skyway"} {
			sum := experiments.Table2(cells)[ser]
			fmt.Printf("  %-8s %s\n", ser, sum.Row())
		}
		fmt.Println("  paper:   kryo Overall geomean 0.76, skyway 0.64; skyway Des 0.16, Size 1.15 (vs kryo 0.52)")
		fmt.Println()
	}

	if *bytesA {
		fmt.Println("Shuffle bytes per record (§5.2) — LiveJournal; full image = object images + a 9-byte top mark, floor = field and element bytes alone")
		rows, err := experiments.RunShuffleBytes(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-4s %10s %11s %9s %9s %9s %12s %11s %11s\n",
			"app", "records", "full image", "wire", "floor", "kryo", "wire/floor", "wire/kryo", "image/kryo")
		for _, r := range rows {
			fmt.Printf("  %-4s %10d %11.2f %9.2f %9.2f %9.2f %12.3f %11.2f %11.2f\n",
				r.App, r.Records, r.FullImage, r.Wire, r.Floor, r.Kryo, r.Wire/r.Floor, r.Wire/r.Kryo, r.FullImage/r.Kryo)
		}
		fmt.Println("  (paper, full images: 1.77x kryo)")
		for _, r := range rows {
			if r.App == experiments.PR {
				fmt.Printf("  PR full-image composition: headers %.0f%%, padding %.0f%%, pointers %.0f%% of the extra bytes over kryo (paper: 51%%/34%%/15%%)\n\n",
					r.HeaderShare*100, r.PadShare*100, r.PtrShare*100)
			}
		}
	}

	if *benchJSON != "" {
		f := experiments.NewBenchFile("spark", append(fig3Cells, cells...))
		if err := f.Write(*benchJSON); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("benchmark trajectory (%d entries) written to %s\n\n", len(f.Entries), *benchJSON)
	}

	if *mem {
		fmt.Println("Memory overhead of the baddr header word (§5.2; paper: 2.1%–21.8%, avg 15.4%)")
		res, err := experiments.RunMemOverhead(cfg)
		if err != nil {
			log.Fatal(err)
		}
		var sum float64
		for _, r := range res {
			fmt.Printf("  %-4s peak heap %8.1f MiB with baddr, %8.1f MiB without: +%.1f%%\n",
				r.App, float64(r.PeakWithBaddr)/(1<<20), float64(r.PeakWithoutBaddr)/(1<<20), r.OverheadFraction*100)
			sum += r.OverheadFraction
		}
		fmt.Printf("  average overhead: %.1f%%\n", sum/float64(len(res))*100)
	}
}

func parseApps(s string) []experiments.SparkApp {
	want := strings.Split(s, ",")
	var out []experiments.SparkApp
	for _, a := range experiments.SparkApps() {
		if slices.Contains(want, string(a)) {
			out = append(out, a)
		}
	}
	return out
}
