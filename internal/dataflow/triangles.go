package dataflow

import (
	"sync/atomic"
	"time"

	"skyway/internal/datagen"
	"skyway/internal/heap"
	"skyway/internal/metrics"
)

// RunTriangleCounting counts the triangles induced by g's edges with the
// standard distributed algorithm: the graph is first symmetrized,
// deduplicated and oriented (orient); then for every oriented edge v → u,
// the sender ships N⁺(v) to u's owner as an AdjMsg carrying a long[]
// payload, and the receiver counts the shipped elements that are also in
// N⁺(u), which it holds as a bitset: one pass over the shipped array per
// record. Shipping adjacency arrays makes TC the shuffle-heaviest workload,
// as in the paper, where TC dominates Figures 3 and 8(a). Returns the
// breakdown, whose Compute (and Wall, when set) includes the orientation,
// and the triangle count.
func RunTriangleCounting(c *Cluster, g *datagen.Graph) (metrics.Breakdown, int64, error) {
	WorkloadClasses(c.CP)
	p := c.NumPartitions()

	start := time.Now()
	off, nb := orient(g)
	prep := time.Since(start)
	higher := func(v int32) []int32 { return nb[off[v]:off[v+1]] }

	var total atomic.Int64 // Consume runs on concurrent tasks
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
				hs := higher(int32(v))
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
			var found uint64
			var shipped []int64 // reused: one bulk read per record, not one resolve per element
			// set holds N⁺(cur) as bits. A block's records arrive sorted
			// by dst, so the set changes once per run of one dst; both
			// lists are duplicate-free, so counting the shipped elements
			// whose bit is set is the intersection's size.
			set := make([]uint64, (g.N+63)/64)
			cur := int32(-1)
			for _, r := range recs {
				if u := int32(ex.RT.GetLong(r, dstF)); u != cur {
					if cur >= 0 {
						for _, w := range higher(cur) {
							set[w>>6] = 0
						}
					}
					for _, w := range higher(u) {
						set[w>>6] |= 1 << (w & 63)
					}
					cur = u
				}
				shipped = ex.RT.ArrayLongs(ex.RT.GetRef(r, nF), shipped)
				for _, w := range shipped {
					found += set[uint64(w)>>6] >> (uint64(w) & 63) & 1
				}
			}
			total.Add(int64(found))
			return nil
		},
	}
	bd, err := c.RunShuffle(spec)
	bd.Add(metrics.Breakdown{Compute: prep})
	return bd, total.Load(), err
}

// orient returns the oriented simple graph of g as a CSR: N⁺(v) is
// nb[off[v]:off[v+1]], v's distinct neighbours other than itself, in either
// edge direction, that follow v in (degree, id) order, ascending by id.
// Orienting each edge toward the higher-(degree, id) endpoint is the
// standard degree orientation that bounds every out-list by O(√E) and keeps
// the adjacency shuffle tractable on power-law graphs. Any total order
// counts each triangle exactly once at its minimum vertex; plain ID order
// would make the hubs' out-lists quadratic.
//
// Every pass is linear and sorts nothing: the in-lists of g come out
// ascending by construction, and each vertex's symmetric list is filled by
// walking sources in ascending order, so it is sorted with duplicates
// adjacent and dedups in place.
func orient(g *datagen.Graph) (off, nb []int32) {
	n := g.N
	// In-lists: in[inOff[v]:inOff[v+1]] are the sources of v's in-edges,
	// ascending. Symmetric degrees are out- plus in-degree before dedup.
	inOff := make([]int32, n+1)
	off = make([]int32, n+1)
	for u, out := range g.Adj {
		off[u+1] += int32(len(out))
		for _, v := range out {
			inOff[v+1]++
			off[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		inOff[v+1] += inOff[v]
		off[v+1] += off[v]
	}
	in := make([]int32, inOff[n])
	pos := append([]int32(nil), inOff[:n]...)
	for u, out := range g.Adj {
		for _, v := range out {
			in[pos[v]] = int32(u)
			pos[v]++
		}
	}

	// Symmetric lists: source s reaches w's list once per edge s → w and
	// once per edge w → s. Sources ascend, so every list does too.
	nb = make([]int32, off[n])
	copy(pos, off[:n])
	for s := range g.Adj {
		for _, w := range g.Adj[s] {
			nb[pos[w]] = int32(s)
			pos[w]++
		}
		for _, w := range in[inOff[s]:inOff[s+1]] {
			nb[pos[w]] = int32(s)
			pos[w]++
		}
	}

	// Dedup and drop self-loops in place; deg is then the simple degree.
	deg := make([]int32, n)
	k := int32(0)
	for v := 0; v < n; v++ {
		start := k
		prev := int32(-1)
		for _, u := range nb[off[v]:off[v+1]] {
			if u != prev && u != int32(v) {
				nb[k] = u
				k++
				prev = u
			}
		}
		off[v] = start
		deg[v] = k - start
	}
	off[n] = k

	// Keep the neighbours that follow v, again in place.
	k = 0
	for v := 0; v < n; v++ {
		start := k
		for _, u := range nb[off[v]:off[v+1]] {
			if deg[u] > deg[v] || deg[u] == deg[v] && u > int32(v) {
				nb[k] = u
				k++
			}
		}
		off[v] = start
	}
	off[n] = k
	return off, nb[:k:k]
}
