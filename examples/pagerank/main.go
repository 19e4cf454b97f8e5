// PageRank on the mini-Spark engine, comparing serializers: the Java
// serializer, Kryo with manual registration, and Skyway. Prints the §2.2
// style breakdown per serializer — the motivating workload of the paper's
// Spark evaluation scaled to a laptop.
package main

import (
	"flag"
	"fmt"
	"log"

	"skyway/internal/dataflow"
	"skyway/internal/datagen"
	"skyway/internal/klass"
	"skyway/internal/serial"
)

func main() {
	scale := flag.Float64("scale", 0.2, "graph scale (1.0 = 1/100 of the paper's LiveJournal)")
	iters := flag.Int("iters", 3, "PageRank iterations")
	workers := flag.Int("workers", 3, "executor count")
	parallel := flag.Int("parallel", 0, "concurrent executor tasks (0/1 = sequential, -1 = one per worker)")
	flag.Parse()

	spec, err := datagen.GraphByName("LiveJournal", *scale)
	if err != nil {
		log.Fatal(err)
	}
	g := spec.Generate()
	fmt.Printf("graph: %s-shaped, |V|=%d |E|=%d maxdeg=%d\n\n", spec.Name, g.N, g.M, g.MaxDegree())

	for _, name := range []string{"java", "kryo", "skyway"} {
		cp := klass.NewPath()
		dataflow.WorkloadClasses(cp)
		codec, err := serial.ByName(name, dataflow.WorkloadRegistration())
		if err != nil {
			log.Fatal(err)
		}
		c, err := dataflow.NewCluster(cp, dataflow.Config{Workers: *workers, ParallelTasks: *parallel}, codec)
		if err != nil {
			log.Fatal(err)
		}
		bd, mass, err := dataflow.RunPageRank(c, g, *iters)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%-8s %s\n", name, bd)
		fmt.Printf("         rank mass %.2f, S/D share of total: %.1f%%\n\n", mass, bd.SDShare()*100)
	}
}
