// Command jsbsbench reproduces Figure 7: the Java Serializer Benchmark Set
// comparison across the serializer design space, distributed JSBS-style
// (serialize, broadcast to the cluster peers, deserialize).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/debug"
	"time"

	"skyway/internal/experiments"
	"skyway/internal/fault"
	"skyway/internal/netsim"
	"skyway/internal/obs"
)

func main() {
	// Keep Go's own collector out of the timed sections: collections are
	// forced between repetitions instead.
	debug.SetGCPercent(600)
	n := flag.Int("n", 20000, "media-content graphs per run")
	infiniband := flag.Bool("infiniband", false, "use the InfiniBand model instead of 1 GbE")
	flag.Parse()
	if fault.Active() {
		defer fault.Report(os.Stdout)
	}
	defer obs.DumpIfEnabled()

	model := netsim.Paper1GbE()
	if *infiniband {
		model = netsim.Infiniband()
	}

	results, err := experiments.RunJSBS(*n, model)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Figure 7 — JSBS (%d media graphs, broadcast at %.1f GB/s effective — overlap-calibrated, see netsim)\n\n", *n, model.NetBandwidth/1e9)
	fmt.Printf("%-20s %12s %12s %12s %12s %10s\n", "library", "ser", "deser", "network", "total", "bytes")
	var sky, kryoManual, java time.Duration
	for _, r := range results {
		fmt.Printf("%-20s %12v %12v %12v %12v %10d\n",
			r.Lib, r.Ser.Round(time.Microsecond), r.Deser.Round(time.Microsecond),
			r.Net.Round(time.Microsecond), r.Total().Round(time.Microsecond), r.Bytes)
		switch r.Lib {
		case "skyway":
			sky = r.Ser + r.Deser
		case "kryo-manual":
			kryoManual = r.Ser + r.Deser
		case "java":
			java = r.Ser + r.Deser
		}
	}
	if sky > 0 {
		fmt.Printf("\nS/D speedups over skyway: kryo-manual %.1fx, java %.1fx (paper: 2.2x, 67.3x)\n",
			float64(kryoManual)/float64(sky), float64(java)/float64(sky))
	}
}
