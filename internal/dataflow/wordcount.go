package dataflow

import (
	"strings"
	"sync/atomic"

	"skyway/internal/heap"
	"skyway/internal/metrics"
)

// RunWordCount executes the WC workload: one map phase with map-side
// combining followed by a single shuffle of (word, count) pair objects and
// a reduce-side sum — the one-round-of-shuffling application of §5.2.
// lines are pre-partitioned across executors by the caller.
// Returns the breakdown and the total word occurrences (for cross-codec
// result validation).
func RunWordCount(c *Cluster, lines [][]string) (metrics.Breakdown, int64, error) {
	WorkloadClasses(c.CP)
	var total atomic.Int64 // Consume runs on concurrent tasks

	spec := ShuffleSpec{
		Produce: func(ex *Executor, emit Emit) error {
			pk := ex.RT.MustLoad(WordPairClass)
			wordF, countF := pk.FieldByName("word"), pk.FieldByName("count")
			// One scratch root for the task: it holds each string across
			// the allocation of the pair that will point to it.
			sp := ex.RT.Pin(heap.Null)
			defer sp.Release()
			// Map-side combine in a transient Go map, like Spark's
			// map-side aggregator.
			counts := make(map[string]int64)
			for _, line := range lines[ex.ID] {
				for _, w := range strings.Fields(line) {
					counts[w]++
				}
			}
			for w, n := range counts {
				s, err := ex.RT.NewString(w)
				if err != nil {
					return err
				}
				sp.Set(s)
				pair, err := ex.RT.New(pk)
				if err != nil {
					return err
				}
				ex.RT.SetRef(pair, wordF, sp.Addr())
				ex.RT.SetLong(pair, countF, n)
				key := uint64(uint32(stringHash(w)))
				emit(int(key)%c.NumPartitions(), key, pair)
			}
			return nil
		},
		Consume: func(ex *Executor, recs []heap.Addr) error {
			pk := ex.RT.MustLoad(WordPairClass)
			wordF, countF := pk.FieldByName("word"), pk.FieldByName("count")
			agg := make(map[string]int64)
			for _, r := range recs {
				w := ex.RT.GoString(ex.RT.GetRef(r, wordF))
				agg[w] += ex.RT.GetLong(r, countF)
			}
			var sum int64
			for _, n := range agg {
				sum += n
			}
			total.Add(sum)
			return nil
		},
	}
	bd, err := c.RunShuffle(spec)
	return bd, total.Load(), err
}

// stringHash is Java's String.hashCode over ASCII bytes (the workload's
// vocabulary is ASCII), keeping partitioning identical across codecs.
func stringHash(s string) int32 {
	var h int32
	for i := 0; i < len(s); i++ {
		h = 31*h + int32(s[i])
	}
	return h
}
