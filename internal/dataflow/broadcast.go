package dataflow

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"skyway/internal/heap"
	"skyway/internal/metrics"
	"skyway/internal/netsim"
)

// Broadcast ships an object graph from the driver to every executor — the
// paper's closure serialization path (§2.1): Spark launches the program on
// the driver and must transfer each task's closure, and everything it
// captures, to the workers before the task can run there. The active data
// serializer carries the closure, exactly like shuffle records, and it
// crosses the same exchange: a broadcast is one round whose blocks are the
// payload put once per executor under (ex, ex), received through fetchBlock
// like any reduce-side block.
//
// Returns the per-executor copies and the transfer cost breakdown (ser on
// the driver, deser on each worker, network modelled per worker). Each copy
// lives in its decoder's input buffers, which are kept; a failed broadcast
// leaves no handle, input buffer or arena region behind.
func (c *Cluster) Broadcast(root heap.Addr) ([]heap.Addr, metrics.Breakdown, error) {
	var bd metrics.Breakdown
	c.shuffleStart()
	c.shuffleSeq++
	sh, err := c.Transport.NewShuffle(c.shuffleSeq)
	if err != nil {
		return nil, bd, fmt.Errorf("dataflow: transport: %w", err)
	}
	defer sh.Close()

	start := time.Now()
	var buf bytes.Buffer
	enc := c.Codec.NewEncoder(c.Driver, &buf)
	if err := enc.Write(root); err != nil {
		return nil, bd, fmt.Errorf("dataflow: broadcast serialize: %w", err)
	}
	if err := enc.Flush(); err != nil {
		return nil, bd, err
	}
	bd.Ser = time.Since(start)
	payload := buf.Bytes()
	bd.ShuffleBytes = int64(len(payload)) * int64(c.Workers())
	bd.RemoteBytes = bd.ShuffleBytes

	// Publish: in process this parks the payload for zero measured cost;
	// over TCP it really ships a copy to every executor's server, and the
	// publish time lands in the write-I/O column.
	var putTime time.Duration
	for _, ex := range c.Execs {
		d, err := sh.Put(ex.ID, ex.ID, payload)
		if err != nil {
			return nil, bd, fmt.Errorf("dataflow: broadcast publish: %w", err)
		}
		putTime += d
	}
	bd.WriteIO = c.ioCharge(putTime, func(m netsim.CostModel) time.Duration { return m.WriteTime(0) })

	// Every worker receives its own copy — concurrently when the cluster is
	// parallel (each writes only its own slots and its own runtime).
	out := make([]heap.Addr, c.Workers())
	bufs := make([]freer, c.Workers())
	rbd, err := c.runPerExecutor("broadcast", func(ex *Executor) (taskResult, error) {
		var res taskResult
		var t fetchTally
		f, err := c.fetchBlock(ex, sh, "broadcast", ex.ID, ex.ID, &t)
		res.bd.Deser = t.deser
		// Modelled, a broadcast receive is one network transfer per executor
		// (per attempt): the payload came from the driver, whichever
		// executor's key it was parked under.
		res.bd.ReadIO = t.slowPenalty + c.ioCharge(t.fetchTime, func(m netsim.CostModel) time.Duration {
			return m.NetTime(t.triedLocal + t.triedRemote)
		})
		res.wall = res.bd.Deser + res.bd.ReadIO
		if err != nil {
			return res, err
		}
		if ex.recs.Len() == 0 {
			freeAll(f)
			return res, errors.New("broadcast block not published")
		}
		out[ex.ID], bufs[ex.ID] = ex.recs.At(0), f
		ex.recs.Release()
		c.sampleHeap(ex)
		return res, nil
	})
	bd.Add(rbd)
	if bd.Wall > 0 {
		// The driver-side encode precedes the concurrent receive stage.
		bd.Wall += bd.Ser
	}
	if err != nil {
		freeAll(bufs...)
		return nil, bd, err
	}
	bd.Records = int64(c.Workers())
	return out, bd, nil
}
