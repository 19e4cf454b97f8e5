// Command benchmark is the repository's one benchmark: five named workloads
// run in a closed loop over real loopback sockets, end-to-end metrics
// measured wall-clock with all tracing off, and a traced run that records
// spans around every call the benchmark makes into a layer and probes each
// layer in isolation. BENCHMARK.json at the repository root declares the
// command, the workloads and the metrics; README.md in this directory
// explains them.
//
//	go run ./benchmark --workload xfer-records --seed 1 --seconds 15 --trace 0
//	go run ./benchmark                       # every workload, both runs
//	go run ./benchmark -runs 10 -o new.json  # ten seeds, for -compare
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -repeat-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// options are the command line.
type options struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       int
	quick       bool
	outDir      string
	runs        int
	resultPath  string
	compare     bool
	repeatCheck bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and print its result as the last line (default: every workload)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long a run measures (BENCHMARK.json's run_seconds)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	flag.BoolVar(&o.quick, "quick", false, "tiny sizes (smoke test; not the benchmark)")
	flag.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for result files and Chrome traces")
	flag.IntVar(&o.runs, "runs", 1, "without -workload: how many times to run the set, each on the next seed")
	flag.StringVar(&o.resultPath, "o", "", "without -workload: where to write the result file (default <out>/results.json)")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare old.json new.json")
	flag.BoolVar(&o.repeatCheck, "repeat-check", false, "run the set twice, second time in reverse order, and fail unless the two agree")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if err := checkHygiene(); err != nil {
		return err
	}
	pinProcs()
	sz := fullSizes
	if o.quick {
		sz = quickSizes
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	env := newEnvBlock(o.seed, o.seconds, sz)

	switch {
	case o.workload != "":
		def, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		res, err := runOne(def, o.seed, o.seconds, o.trace == 1, sz, o.outDir)
		if err != nil {
			return err
		}
		f := resultFile{Env: env, Runs: []result{res}}
		if err := f.write(filepath.Join(o.outDir, fmt.Sprintf("result-%s-trace%d.json", def.name, o.trace))); err != nil {
			return err
		}
		return printDriverLine(res)

	case o.repeatCheck:
		first, err := runSet(workloads, o.seed, o.seconds, sz, o.outDir, 1)
		if err != nil {
			return err
		}
		reversed := make([]workloadDef, len(workloads))
		for i, w := range workloads {
			reversed[len(workloads)-1-i] = w
		}
		second, err := runSet(reversed, o.seed, o.seconds, sz, o.outDir, 1)
		if err != nil {
			return err
		}
		c, err := compare(os.Stdout, resultFile{Env: env, Runs: first}, resultFile{Env: env, Runs: second})
		if err != nil {
			return err
		}
		if n := c.verdicts[improved] + c.verdicts[regressed] + c.verdicts[unresolved]; n > 0 || c.countsDiffered > 0 {
			return fmt.Errorf("repeat-check: %d end-to-end metrics disagree beyond their bound, %d per-layer counts differ", n, c.countsDiffered)
		}
		fmt.Println("repeat-check: the two sets agree")
		return nil

	default:
		all, err := runSet(workloads, o.seed, o.seconds, sz, o.outDir, o.runs)
		if err != nil {
			return err
		}
		if o.resultPath == "" {
			o.resultPath = filepath.Join(o.outDir, "results.json")
		}
		if err := (resultFile{Env: env, Runs: all}).write(o.resultPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.resultPath)
		for _, r := range all {
			if r.FailedOps > 0 {
				return fmt.Errorf("%s: %d of %d iterations failed", r.Workload, r.FailedOps, r.Ops)
			}
		}
		return nil
	}
}

// runOne runs one workload once, prints every metric by name with its unit,
// and checks the result is complete.
func runOne(def workloadDef, seed uint64, seconds float64, traced bool, sz sizes, outDir string) (result, error) {
	var res result
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		res, err = runTraced(def, seed, seconds, sz, outDir)
	} else {
		res, err = runUntraced(def, seed, seconds, sz)
	}
	if err != nil {
		return res, err
	}
	fmt.Printf("%s  seed=%d seconds=%g traced=%v  ops=%d failed_ops=%d samples=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Traced, res.Ops, res.FailedOps, res.Samples)
	for _, f := range res.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	for _, d := range defs {
		fmt.Printf("  %-32s %14.6g %s\n", d.name, res.Metrics[d.name], d.unit)
	}
	return res, res.check()
}

// runSet runs every workload in defs, untraced then traced, times times; run
// r uses seed+r, as the acceptance procedure varies the seed between runs.
func runSet(defs []workloadDef, seed uint64, seconds float64, sz sizes, outDir string, times int) ([]result, error) {
	var all []result
	for r := 0; r < times; r++ {
		for _, def := range defs {
			for _, traced := range []bool{false, true} {
				res, err := runOne(def, seed+uint64(r), seconds, traced, sz, outDir)
				if err != nil {
					return all, err
				}
				all = append(all, res)
				releaseMemory()
			}
		}
	}
	return all, nil
}

// printDriverLine prints the one JSON object the benchmark contract asks for
// as the last line of standard output.
func printDriverLine(res result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.name] = value{res.Metrics[d.name], d.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   res.FailedOps == 0,
		"attempted": res.Ops,
		"failed":    res.FailedOps,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

func compareFiles(oldPath, newPath string) error {
	old, err := readResultFile(oldPath)
	if err != nil {
		return err
	}
	new, err := readResultFile(newPath)
	if err != nil {
		return err
	}
	c, err := compare(os.Stdout, old, new)
	if err != nil {
		return err
	}
	if c.verdicts[regressed] > 0 || c.countsDiffered > 0 {
		return fmt.Errorf("%d end-to-end metrics regressed, %d per-layer counts differ", c.verdicts[regressed], c.countsDiffered)
	}
	return nil
}
