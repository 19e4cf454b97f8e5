package datagen

import "fmt"

// GraphSpec shapes one synthetic graph. The four named specs mirror the
// Table 1 corpora (LiveJournal, Orkut, UK-2005, Twitter-2010): the vertex
// counts are scaled down by a user factor while the published |E|/|V|
// ratios and the social-network degree skew are preserved, which is what
// the Spark workloads are sensitive to.
type GraphSpec struct {
	Name        string
	Description string
	Vertices    int
	AvgDegree   float64
	Seed        uint64
}

// The paper's graph inputs (Table 1), scaled: scale=1.0 yields 1/100 of the
// published vertex counts, keeping runs laptop-sized.
func paperGraphs(scale float64) []GraphSpec {
	s := func(v int) int {
		n := int(float64(v) * scale / 100)
		if n < 1000 {
			n = 1000
		}
		return n
	}
	return []GraphSpec{
		{Name: "LiveJournal", Description: "Social network", Vertices: s(4_800_000), AvgDegree: 69.0 / 4.8, Seed: 41},
		{Name: "Orkut", Description: "Social network", Vertices: s(3_000_000), AvgDegree: 117.0 / 3.0, Seed: 42},
		{Name: "UK-2005", Description: "Web graph", Vertices: s(39_500_000), AvgDegree: 936.0 / 39.5, Seed: 43},
		{Name: "Twitter-2010", Description: "Social network", Vertices: s(41_600_000), AvgDegree: 1500.0 / 41.6, Seed: 44},
	}
}

// PaperGraphs returns the four Table 1 specs at the given scale.
func PaperGraphs(scale float64) []GraphSpec { return paperGraphs(scale) }

// GraphByName returns the named Table 1 spec at the given scale.
func GraphByName(name string, scale float64) (GraphSpec, error) {
	for _, g := range paperGraphs(scale) {
		if g.Name == name {
			return g, nil
		}
	}
	return GraphSpec{}, fmt.Errorf("datagen: unknown graph %q", name)
}

// Graph is an in-memory directed graph in CSR form.
type Graph struct {
	Spec GraphSpec
	N    int
	// Adj[v] lists v's out-neighbours.
	Adj [][]int32
	// M is the edge count.
	M int
}

// Generate materializes the spec with an R-MAT-style recursive generator
// (the standard model for social-graph degree skew).
func (spec GraphSpec) Generate() *Graph {
	n := spec.Vertices
	// Round vertex count up to a power of two for R-MAT, then mod back.
	levels := 0
	for 1<<levels < n {
		levels++
	}
	m := int(float64(n) * spec.AvgDegree)
	rng := NewRNG(spec.Seed)
	const a, b, c = 0.57, 0.19, 0.19 // d = 0.05

	adj := make([][]int32, n)
	edges := 0
	for i := 0; i < m; i++ {
		var u, v int
		for l := 0; l < levels; l++ {
			r := rng.Float64()
			switch {
			case r < a:
				// upper-left
			case r < a+b:
				v |= 1 << l
			case r < a+b+c:
				u |= 1 << l
			default:
				u |= 1 << l
				v |= 1 << l
			}
		}
		u %= n
		v %= n
		if u == v {
			continue
		}
		adj[u] = append(adj[u], int32(v))
		edges++
	}
	return &Graph{Spec: spec, N: n, Adj: adj, M: edges}
}

// MaxDegree returns the maximum out-degree (skew diagnostic).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, nb := range g.Adj {
		if len(nb) > max {
			max = len(nb)
		}
	}
	return max
}
