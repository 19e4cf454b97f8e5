package dataflow

import (
	"testing"

	"skyway/internal/klass"
	"skyway/internal/serial"
	"skyway/internal/verify"
)

// TestWarmMapTaskAllocsPerPartition is the allocation gate on the shuffle's
// record buffer: once a first round has sized the executor's root table,
// per-partition record slices and sort buffer, a map task over 10 000 emitted
// records costs a number of Go allocations that depends on the partition
// count — a block buffer, an encoder stream and a stored block each — and
// not on the record count. One gc.Handle per record, or a record slice
// regrown from nothing, is ≥ 10 000.
func TestWarmMapTaskAllocsPerPartition(t *testing.T) {
	if verify.Enabled() {
		t.Skip("the heap verifier allocates during its walks")
	}
	cp := klass.NewPath()
	WorkloadClasses(cp)
	c := newTestCluster(t, serial.NewSkywayCodec(), cp)
	ex, p := c.Execs[0], c.NumPartitions()
	const records = 10000
	spec := ShuffleSpec{Produce: func(ex *Executor, emit Emit) error {
		mk := ex.RT.MustLoad(RankMsgClass)
		dstF := mk.FieldByName("dst")
		for i := 0; i < records; i++ {
			msg, err := ex.RT.New(mk)
			if err != nil {
				return err
			}
			// Scrambled keys spanning three bytes: the sort really runs.
			key := uint64(i) * 2654435761 % 70001
			ex.RT.SetLong(msg, dstF, int64(key))
			emit(int(key)%p, key, msg)
		}
		return nil
	}}
	round := func() {
		c.shuffleStart()
		c.shuffleSeq++
		sh, err := c.Transport.NewShuffle(c.shuffleSeq)
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()
		res, err := c.mapTask(ex, spec, sh, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.bd.Records != records {
			t.Fatalf("map task encoded %d records, want %d", res.bd.Records, records)
		}
	}
	round() // round 1 sizes the buffers
	if got, budget := testing.AllocsPerRun(10, round), float64(64*p); got > budget {
		t.Errorf("a warm map task over %d records makes %.0f Go allocations, budget %.0f (64 per partition, %d partitions)",
			records, got, budget, p)
	} else {
		t.Logf("%.0f allocations per warm map task (%d records, %d partitions)", got, records, p)
	}
	if n := ex.RT.GC.Stats().HandleCount; n != 0 {
		t.Errorf("%d roots left after the map tasks", n)
	}
}
