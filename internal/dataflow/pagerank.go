package dataflow

import (
	"sync/atomic"

	"skyway/internal/datagen"
	"skyway/internal/heap"
	"skyway/internal/metrics"
)

// graphState is the per-executor vertex state for the iterative graph
// workloads: vertex IDs owned by the executor (v % workers == ID) plus
// their adjacency. Vertex state stays executor-local; only message objects
// cross heaps, which is where S/D cost arises.
type graphState struct {
	vertices []int32
	adj      map[int32][]int32
	ranks    map[int32]float64
	labels   map[int32]int64
}

func buildStates(c *Cluster, g *datagen.Graph) []*graphState {
	p := c.Workers()
	states := make([]*graphState, p)
	for i := range states {
		states[i] = &graphState{adj: make(map[int32][]int32)}
	}
	for v := 0; v < g.N; v++ {
		s := states[v%p]
		s.vertices = append(s.vertices, int32(v))
		if len(g.Adj[v]) > 0 {
			s.adj[int32(v)] = g.Adj[v]
		}
	}
	return states
}

// RunPageRank executes iters rounds of classic Spark PageRank over g: each
// round shuffles one RankMsg object per edge. Returns the breakdown and
// the rank mass (sum of ranks) for cross-codec validation.
func RunPageRank(c *Cluster, g *datagen.Graph, iters int) (metrics.Breakdown, float64, error) {
	WorkloadClasses(c.CP)
	states := buildStates(c, g)
	for _, s := range states {
		s.ranks = make(map[int32]float64, len(s.vertices))
		for _, v := range s.vertices {
			s.ranks[v] = 1.0
		}
	}
	p := c.NumPartitions()
	var bd metrics.Breakdown

	for it := 0; it < iters; it++ {
		sums := make([]map[int32]float64, c.Workers())
		spec := ShuffleSpec{
			Produce: func(ex *Executor, emit Emit) error {
				mk := ex.RT.MustLoad(RankMsgClass)
				dstF, valueF := mk.FieldByName("dst"), mk.FieldByName("value")
				s := states[ex.ID]
				for _, v := range s.vertices {
					nbrs := s.adj[v]
					if len(nbrs) == 0 {
						continue
					}
					contrib := s.ranks[v] / float64(len(nbrs))
					for _, u := range nbrs {
						msg, err := ex.RT.New(mk)
						if err != nil {
							return err
						}
						ex.RT.SetLong(msg, dstF, int64(u))
						ex.RT.SetDouble(msg, valueF, contrib)
						emit(int(u)%p, uint64(u), msg)
					}
				}
				return nil
			},
			Consume: func(ex *Executor, recs []heap.Addr) error {
				mk := ex.RT.MustLoad(RankMsgClass)
				dstF, valueF := mk.FieldByName("dst"), mk.FieldByName("value")
				agg := make(map[int32]float64)
				for _, r := range recs {
					agg[int32(ex.RT.GetLong(r, dstF))] += ex.RT.GetDouble(r, valueF)
				}
				sums[ex.ID] = agg
				return nil
			},
		}
		sbd, err := c.RunShuffle(spec)
		if err != nil {
			return bd, 0, err
		}
		bd.Add(sbd)

		ubd, err := c.Compute(func(ex *Executor) error {
			s := states[ex.ID]
			agg := sums[ex.ID]
			for _, v := range s.vertices {
				s.ranks[v] = 0.15 + 0.85*agg[v]
			}
			return nil
		})
		if err != nil {
			return bd, 0, err
		}
		bd.Add(ubd)
	}

	// Sum in vertex order: map iteration order would perturb the float
	// sum's last ulp and break cross-serializer digest comparisons.
	var mass float64
	for _, s := range states {
		for _, v := range s.vertices {
			mass += s.ranks[v]
		}
	}
	return bd, mass, nil
}

// RunConnectedComponents executes label propagation until convergence (or
// maxIters): every round, each vertex broadcasts its current component
// label to its neighbours as LabelMsg objects; vertices adopt the minimum
// label seen. Returns the breakdown and the number of components found.
func RunConnectedComponents(c *Cluster, g *datagen.Graph, maxIters int) (metrics.Breakdown, int, error) {
	WorkloadClasses(c.CP)
	states := buildStates(c, g)
	for _, s := range states {
		s.labels = make(map[int32]int64, len(s.vertices))
		for _, v := range s.vertices {
			s.labels[v] = int64(v)
		}
	}
	p := c.NumPartitions()
	var bd metrics.Breakdown

	for it := 0; it < maxIters; it++ {
		// Summed atomically: the Compute closure runs on concurrent tasks.
		var changedTotal int64
		mins := make([]map[int32]int64, c.Workers())
		spec := ShuffleSpec{
			Produce: func(ex *Executor, emit Emit) error {
				mk := ex.RT.MustLoad(LabelMsgClass)
				dstF, labelF := mk.FieldByName("dst"), mk.FieldByName("label")
				s := states[ex.ID]
				for _, v := range s.vertices {
					label := s.labels[v]
					for _, u := range s.adj[v] {
						msg, err := ex.RT.New(mk)
						if err != nil {
							return err
						}
						ex.RT.SetLong(msg, dstF, int64(u))
						ex.RT.SetLong(msg, labelF, label)
						emit(int(u)%p, uint64(u), msg)
					}
				}
				return nil
			},
			Consume: func(ex *Executor, recs []heap.Addr) error {
				mk := ex.RT.MustLoad(LabelMsgClass)
				dstF, labelF := mk.FieldByName("dst"), mk.FieldByName("label")
				agg := make(map[int32]int64)
				for _, r := range recs {
					dst := int32(ex.RT.GetLong(r, dstF))
					l := ex.RT.GetLong(r, labelF)
					if cur, ok := agg[dst]; !ok || l < cur {
						agg[dst] = l
					}
				}
				mins[ex.ID] = agg
				return nil
			},
		}
		sbd, err := c.RunShuffle(spec)
		if err != nil {
			return bd, 0, err
		}
		bd.Add(sbd)

		ubd, err := c.Compute(func(ex *Executor) error {
			s := states[ex.ID]
			var changed int64
			for v, l := range mins[ex.ID] {
				if l < s.labels[v] {
					s.labels[v] = l
					changed++
				}
			}
			atomic.AddInt64(&changedTotal, changed)
			return nil
		})
		if err != nil {
			return bd, 0, err
		}
		bd.Add(ubd)
		if changedTotal == 0 {
			break
		}
	}

	comps := make(map[int64]bool)
	for _, s := range states {
		for _, l := range s.labels {
			comps[l] = true
		}
	}
	return bd, len(comps), nil
}
