package dataflow

import (
	"testing"
	"time"

	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/serial"
)

// TestBreakdownChargesGCOnce holds the task clock to its rule on a PageRank
// whose small eden makes the executors collect inside produce, decode and
// consume: every executor pause lands in Breakdown.GC exactly once, under
// a codec whose streams encode on the task goroutine (kryo) and one whose
// encode fans out over two sender slots on a parallel cluster (skyway), with
// one task slot and with a slot per executor.
func TestBreakdownChargesGCOnce(t *testing.T) {
	g := testGraph()
	hc := smallHeap()
	hc.EdenSize, hc.SurvivorSize = 256<<10, 64<<10
	for _, codec := range []string{"kryo", "skyway"} {
		for _, slots := range []int{1, 0} {
			name := codec + "/one-slot"
			if slots == 0 {
				name = codec + "/slot-per-executor"
			}
			t.Run(name, func(t *testing.T) {
				cp := klass.NewPath()
				WorkloadClasses(cp)
				c, err := NewCluster(cp, Config{Workers: 3, Heap: hc, ParallelTasks: slots}, nil)
				if err != nil {
					t.Fatal(err)
				}
				c.Codec = testCodecs(t, cp)[codec](c)
				pause := func() (d time.Duration) {
					for _, ex := range c.Execs {
						d += ex.RT.GC.Stats().TotalPause()
					}
					return d
				}
				before := pause()
				bd, _, err := RunPageRank(c, g, 3)
				if err != nil {
					t.Fatal(err)
				}
				delta := pause() - before
				if bd.GC != delta {
					t.Errorf("Breakdown.GC = %v, executors paused %v", bd.GC, delta)
				}
				if bd.GC <= 0 {
					t.Errorf("no collection charged (%d scavenges): the eden no longer forces any", c.GCStats().Scavenges)
				}
				t.Logf("%d scavenges, %d full GCs: %v", c.GCStats().Scavenges, c.GCStats().FullGCs, bd)
				if bd.Compute < 0 || bd.Ser < 0 || bd.Deser < 0 {
					t.Errorf("a component went negative: %v", bd)
				}
			})
		}
	}
}

// Below the stage merge, a reduce task's wall is its component sum to the
// nanosecond — each decode and the consume are charged once, to Deser or
// Compute or to GC, plus the read I/O — and its GC is what its executor's
// collector paused meanwhile, with the small eden forcing collections.
func TestReduceTaskWallIsComponentSum(t *testing.T) {
	cp := klass.NewPath()
	WorkloadClasses(cp)
	hc := smallHeap()
	hc.EdenSize, hc.SurvivorSize = 256<<10, 64<<10
	c, err := NewCluster(cp, Config{Workers: 2, Heap: hc, ParallelTasks: 1}, serial.KryoCodec(WorkloadRegistration()))
	if err != nil {
		t.Fatal(err)
	}
	p := c.NumPartitions()
	spec := ShuffleSpec{
		Produce: func(ex *Executor, emit Emit) error {
			mk := ex.RT.MustLoad(RankMsgClass)
			for i := 0; i < 20000; i++ {
				emit(i%p, uint64(i), ex.RT.MustNew(mk))
			}
			return nil
		},
		Consume: func(ex *Executor, recs []heap.Addr) error {
			mk := ex.RT.MustLoad(RankMsgClass)
			for range recs {
				ex.RT.MustNew(mk)
			}
			return nil
		},
	}
	c.shuffleStart()
	c.shuffleSeq++
	sh, err := c.Transport.NewShuffle(c.shuffleSeq)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for _, ex := range c.Execs {
		if _, err := c.mapTask(ex, spec, sh, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, ex := range c.Execs {
		before := ex.RT.GC.TotalPause()
		res, err := c.reduceTask(ex, spec, sh, p)
		if err != nil {
			t.Fatal(err)
		}
		if paused := ex.RT.GC.TotalPause() - before; res.bd.GC != paused || paused <= 0 {
			t.Errorf("worker %d: Breakdown.GC = %v, its collector paused %v (want equal and > 0)", ex.ID, res.bd.GC, paused)
		}
		if res.wall != res.bd.Sum() {
			t.Errorf("worker %d: task wall %v, component sum %v: %v", ex.ID, res.wall, res.bd.Sum(), res.bd)
		}
	}
}
