package dataflow

import (
	"slices"
	"sync/atomic"

	"skyway/internal/datagen"
	"skyway/internal/heap"
	"skyway/internal/metrics"
)

// RunTriangleCounting counts the triangles induced by g's edges with the
// standard distributed algorithm: the graph is first symmetrized and
// deduplicated; then for every edge (u, v) with u < v, the sender ships
// u's (pruned) neighbour list to v's owner as an AdjMsg carrying a long[]
// payload, and the receiver intersects it with v's local neighbour set.
// Shipping adjacency arrays makes TC the shuffle-heaviest workload, as in
// the paper, where TC dominates Figures 3 and 8(a). Returns the breakdown
// and the triangle count.
func RunTriangleCounting(c *Cluster, g *datagen.Graph) (metrics.Breakdown, int64, error) {
	WorkloadClasses(c.CP)
	p := c.NumPartitions()

	// Symmetrize + dedup into undirected adjacency, then keep only
	// higher-numbered neighbours (each triangle counted once).
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
	// Orient each edge toward the higher-(degree, id) endpoint — the
	// standard degree orientation that bounds every out-list by O(√E)
	// and keeps the adjacency shuffle tractable on power-law graphs.
	// Any total order counts each triangle exactly once at its minimum
	// vertex; plain ID order would make the hubs' out-lists quadratic.
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
		// Keep lists ID-sorted so the reducer's merge-intersection
		// works.
		slices.Sort(higher[v])
	}

	var total int64 // summed atomically: Consume runs on concurrent tasks
	spec := ShuffleSpec{
		Produce: func(ex *Executor, emit Emit) error {
			mk := ex.RT.MustLoad(AdjMsgClass)
			srcF, dstF, nF := mk.FieldByName("src"), mk.FieldByName("dst"), mk.FieldByName("neighbors")
			arrK := ex.RT.MustLoad("long[]")
			// One scratch root for the task: it holds each array across
			// the allocation of the message that will point to it.
			ah := ex.RT.Pin(heap.Null)
			defer ah.Release()
			var nbrs []int64 // N⁺(v) widened once, stored into every copy shipped
			for v := ex.ID; v < g.N; v += c.Workers() {
				hs := higher[v]
				if len(hs) == 0 {
					continue
				}
				nbrs = nbrs[:0]
				for _, w := range hs {
					nbrs = append(nbrs, int64(w))
				}
				for _, u := range hs {
					// Ship N⁺(v) to u's owner for intersection
					// with N⁺(u).
					arr, err := ex.RT.NewArray(arrK, len(hs))
					if err != nil {
						return err
					}
					ex.RT.ArrayPutLongs(arr, nbrs)
					ah.Set(arr)
					msg, err := ex.RT.New(mk)
					if err != nil {
						return err
					}
					ex.RT.SetLong(msg, srcF, int64(v))
					ex.RT.SetLong(msg, dstF, int64(u))
					ex.RT.SetRef(msg, nF, ah.Addr())
					emit(int(u)%p, uint64(u), msg)
				}
			}
			return nil
		},
		Consume: func(ex *Executor, recs []heap.Addr) error {
			mk := ex.RT.MustLoad(AdjMsgClass)
			dstF, nF := mk.FieldByName("dst"), mk.FieldByName("neighbors")
			var found int64
			var shipped []int64 // reused: one bulk read per record, not one resolve per element
			for _, r := range recs {
				u := int32(ex.RT.GetLong(r, dstF))
				shipped = ex.RT.ArrayLongs(ex.RT.GetRef(r, nF), shipped)
				// Intersect sorted N⁺(v) (shipped) with N⁺(u)
				// (local).
				local := higher[u]
				i, j := 0, 0
				for i < len(shipped) && j < len(local) {
					w := int32(shipped[i])
					switch {
					case w < local[j]:
						i++
					case w > local[j]:
						j++
					default:
						found++
						i++
						j++
					}
				}
			}
			atomic.AddInt64(&total, found)
			return nil
		},
	}
	bd, err := c.RunShuffle(spec)
	return bd, total, err
}
