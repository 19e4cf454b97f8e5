package dataflow

import (
	"slices"
	"testing"

	"skyway/internal/datagen"
	"skyway/internal/klass"
)

// triangleGraphs are TC's test inputs: R-MAT graphs, which carry duplicate
// and reciprocal edges, on several seeds and on both sides of 128 vertices
// (the reducer's bitset then spans words), plus one with every edge case
// added: self-loops, a hub, more duplicate and reciprocal edges, and
// isolated vertices at the end.
func triangleGraphs() map[string]*datagen.Graph {
	gen := func(n int, deg float64, seed uint64) *datagen.Graph {
		return datagen.GraphSpec{Name: "tc", Vertices: n, AvgDegree: deg, Seed: seed}.Generate()
	}
	edgy := gen(200, 5, 5)
	for v := 0; v < edgy.N; v += 7 {
		edgy.Adj[v] = append(edgy.Adj[v], int32(v)) // self-loop
	}
	for v := 1; v < edgy.N; v += 3 {
		edgy.Adj[0] = append(edgy.Adj[0], int32(v)) // hub
		if v%2 == 0 {
			edgy.Adj[v] = append(edgy.Adj[v], 0, 0) // reciprocal, twice
		}
	}
	for v := 0; v+1 < edgy.N; v += 11 {
		edgy.Adj[v] = append(edgy.Adj[v], int32(v+1), int32(v+1)) // duplicate
		edgy.Adj[v+1] = append(edgy.Adj[v+1], int32(v))           // reciprocal
	}
	edgy.N += 9
	edgy.Adj = append(edgy.Adj, make([][]int32, 9)...) // isolated
	return map[string]*datagen.Graph{
		"rmat-60-seed3":   gen(60, 5, 3),
		"rmat-300-seed11": gen(300, 8, 11),
		"rmat-500-seed12": gen(500, 6, 12),
		"edge-cases-209":  edgy,
	}
}

// bruteForceTriangles counts the triangles of g's symmetrized simple graph
// from adjacency sets.
func bruteForceTriangles(g *datagen.Graph) int64 {
	adj := make([]map[int32]bool, g.N)
	for i := range adj {
		adj[i] = make(map[int32]bool)
	}
	for u := range g.Adj {
		for _, v := range g.Adj[u] {
			if int32(u) != v {
				adj[u][v] = true
				adj[v][int32(u)] = true
			}
		}
	}
	var n int64
	for u := 0; u < g.N; u++ {
		for v := range adj[u] {
			if v <= int32(u) {
				continue
			}
			for w := range adj[v] {
				if w > v && adj[u][w] {
					n++
				}
			}
		}
	}
	return n
}

func TestTriangleCountMatchesBruteForce(t *testing.T) {
	for name, g := range triangleGraphs() {
		want := bruteForceTriangles(g)
		if want == 0 {
			t.Fatalf("%s: no triangles to count", name)
		}
		for _, codec := range []string{"java", "skyway", "skyway-arena"} {
			t.Run(name+"/"+codec, func(t *testing.T) {
				cp := klass.NewPath()
				WorkloadClasses(cp)
				c := newTestCluster(t, nil, cp)
				c.Codec = testCodecs(t, cp)[codec](c)
				_, got, err := RunTriangleCounting(c, g)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("triangles = %d, want %d", got, want)
				}
			})
		}
	}
}

// sortedOrientation is orient's reference: append both directions of every
// edge, sort and dedup each list, drop self-loops, keep the neighbours that
// follow v in (degree, id) order and sort again.
func sortedOrientation(g *datagen.Graph) [][]int32 {
	und := make([][]int32, g.N)
	for u := range g.Adj {
		for _, v := range g.Adj[u] {
			und[u] = append(und[u], v)
			und[v] = append(und[v], int32(u))
		}
	}
	for v := range und {
		nb := und[v]
		slices.Sort(nb)
		uniq := nb[:0]
		var prev int32 = -1
		for _, u := range nb {
			if u != prev && u != int32(v) {
				uniq = append(uniq, u)
				prev = u
			}
		}
		und[v] = uniq
	}
	follows := func(a, b int32) bool {
		da, db := len(und[a]), len(und[b])
		if da != db {
			return da > db
		}
		return a > b
	}
	higher := make([][]int32, g.N)
	for v := range und {
		for _, u := range und[v] {
			if follows(u, int32(v)) {
				higher[v] = append(higher[v], u)
			}
		}
		slices.Sort(higher[v])
	}
	return higher
}

// orient must give every vertex the list the sort-based construction gives
// it, element for element: Produce ships those lists in that order, so the
// shuffle's records and bytes depend on it, not just the triangle count.
func TestOrientMatchesSortedConstruction(t *testing.T) {
	graphs := triangleGraphs()
	lj, err := datagen.GraphByName("LiveJournal", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	graphs["livejournal-0.05"] = lj.Generate()
	for name, g := range graphs {
		off, nb := orient(g)
		want := sortedOrientation(g)
		if len(off) != g.N+1 || int(off[g.N]) != len(nb) {
			t.Fatalf("%s: %d offsets ending at %d for %d vertices and %d neighbours", name, len(off), off[len(off)-1], g.N, len(nb))
		}
		for v := range want {
			if got := nb[off[v]:off[v+1]]; !slices.Equal(got, want[v]) {
				t.Fatalf("%s: N⁺(%d) = %v, want %v", name, v, got, want[v])
			}
		}
	}
}
