package dataflow

import (
	"bytes"
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
// serializer carries the closure, exactly like shuffle records.
//
// Returns the per-executor copies and the transfer cost breakdown (ser on
// the driver, deser on each worker, network modelled per worker).
func (c *Cluster) Broadcast(root heap.Addr) ([]heap.Addr, metrics.Breakdown, error) {
	var bd metrics.Breakdown
	c.shuffleStart()
	c.broadcastSeq++
	seq := c.broadcastSeq

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

	// Publish through the transport: in process this parks the payload for
	// zero measured cost; over TCP it really ships a copy to every executor
	// server, and the publish time lands in the write-I/O column.
	pubTime, err := c.Transport.Broadcast(seq, payload)
	if err != nil {
		return nil, bd, fmt.Errorf("dataflow: broadcast publish: %w", err)
	}
	bd.WriteIO = c.ioCharge(pubTime, func(m netsim.CostModel) time.Duration { return m.WriteTime(0) })

	// Every worker decodes its own copy — concurrently when the cluster is
	// parallel (each writes only its own out slot and its own runtime).
	out := make([]heap.Addr, c.Workers())
	rbd, err := c.runPerExecutor("broadcast", func(ex *Executor) (taskResult, error) {
		var res taskResult
		copyB, fetchTime, err := c.Transport.FetchBroadcast(seq, ex.ID)
		if err != nil {
			return res, fmt.Errorf("fetch broadcast: %w", err)
		}
		start := time.Now()
		dec := c.Codec.NewDecoder(ex.RT, bytes.NewReader(copyB))
		got, err := dec.Read()
		if err != nil {
			return res, fmt.Errorf("deserialize: %w", err)
		}
		res.bd.Deser = time.Since(start)
		out[ex.ID] = got
		// Modelled, a broadcast receive is one network transfer per executor.
		res.bd.ReadIO = c.ioCharge(fetchTime, func(m netsim.CostModel) time.Duration { return m.NetTime(int64(len(copyB))) })
		res.wall = res.bd.Deser + res.bd.ReadIO
		c.sampleHeap(ex)
		return res, nil
	})
	bd.Add(rbd)
	if bd.Wall > 0 {
		// The driver-side encode precedes the concurrent receive stage.
		bd.Wall += bd.Ser
	}
	if err != nil {
		return nil, bd, err
	}
	bd.Records = int64(c.Workers())
	return out, bd, nil
}
