package dataflow

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"skyway/internal/fault"
	"skyway/internal/heap"
	"skyway/internal/metrics"
	"skyway/internal/netsim"
	"skyway/internal/obs"
	"skyway/internal/transport"
)

// Emit sends one record to a destination shuffle partition during the map
// side of a shuffle (partitions number Cluster.NumPartitions and are placed
// on executors by Cluster.OwnerOf). Sort keys drive the sort-based shuffle
// ordering (Tungsten sort).
type Emit func(dst int, sortKey uint64, rec heap.Addr)

// ShuffleSpec describes one shuffle phase.
type ShuffleSpec struct {
	// Produce runs on every executor and emits keyed records. It executes
	// under the computation timer. With a parallel cluster, Produce runs
	// for several executors at once (one goroutine per executor), so it
	// must only touch ex-local and read-only shared state, or synchronize.
	Produce func(ex *Executor, emit Emit) error
	// Consume runs on every executor over the records it received (in
	// sorted key order per sending block). It executes under the
	// computation timer, with the same concurrency contract as Produce.
	// recs is the executor's root table itself: its elements stay current
	// if Consume allocates, and it is invalid once Consume returns.
	Consume func(ex *Executor, recs []heap.Addr) error
}

// outRecord is a map-side buffered record: its sort key and its slot in the
// executor's root table, which is what keeps the record alive and current
// across the producer's further allocations.
type outRecord struct {
	key  uint64
	slot int
}

// RunShuffle executes one full shuffle phase over the cluster and returns
// its cost breakdown:
//
//	compute: Produce + sort + Consume (measured)
//	ser:     encoding each (mapper, reducer) block (measured)
//	writeIO: publishing blocks to the transport (modelled from bytes, or
//	         measured when the transport does real I/O)
//	readIO:  fetching blocks, split local/remote (modelled or measured)
//	deser:   decoding fetched blocks on the reducer (measured)
//	gc:      the executors' collection pauses inside the measured regions,
//	         which the regions' own components do not contain
//
// Blocks move through the cluster's Transport: the in-process simulator
// stores them in memory (or spill files) and prices I/O with the cost
// model; the TCP transport moves them through executor block servers and
// charges measured socket time. The map side and the reduce side are stages
// separated by a barrier; with a parallel cluster, each stage's executor
// tasks run on concurrent goroutines and the stage's wall-clock
// contribution is its slowest task (the Breakdown's Wall), while the
// components above still sum across executors. The task's taskClock
// charges every measured region.
func (c *Cluster) RunShuffle(spec ShuffleSpec) (metrics.Breakdown, error) {
	p := c.NumPartitions()
	c.shuffleStart()
	c.shuffleSeq++
	sh, err := c.Transport.NewShuffle(c.shuffleSeq)
	if err != nil {
		return metrics.Breakdown{}, fmt.Errorf("dataflow: transport: %w", err)
	}
	defer sh.Close()

	bd, err := c.runPerExecutor("map", func(ex *Executor) (taskResult, error) {
		return c.mapTask(ex, spec, sh, p)
	})
	if err != nil {
		return bd, err
	}
	rbd, err := c.runPerExecutor("reduce", func(ex *Executor) (taskResult, error) {
		return c.reduceTask(ex, spec, sh, p)
	})
	bd.Add(rbd)
	return bd, err
}

// mapTask runs one executor's map side: produce + sort + serialize + spill.
// Serialization fans out over senderSlots encoder streams, concurrent on a
// parallel Skyway cluster — the §4.2 multi-threaded sender path, with several
// streams claiming baddr words out of this executor's heap at once.
func (c *Cluster) mapTask(ex *Executor, spec ShuffleSpec, sh transport.Shuffle, p int) (taskResult, error) {
	var res taskResult
	k := res.startClock(ex)
	// The task's records live in the executor's root table until the task
	// returns — on the task goroutine, after the sender streams have joined:
	// the collector's root set is runtime-confined.
	tab := ex.recs
	defer tab.Release()
	if len(ex.out) != p {
		ex.out = make([][]outRecord, p)
		ex.blocks = make([]bytes.Buffer, p)
	}
	out := ex.out
	for dst := range out {
		out[dst] = out[dst][:0]
	}

	err := spec.Produce(ex, func(dst int, key uint64, rec heap.Addr) {
		if dst < 0 || dst >= p {
			panic(fmt.Sprintf("dataflow: emit to partition %d of %d", dst, p))
		}
		out[dst] = append(out[dst], outRecord{key: key, slot: tab.Append(rec)})
	})
	if err != nil {
		return res, fmt.Errorf("produce: %w", err)
	}
	// Sort each block by key (sort-based shuffle).
	for dst := range out {
		ex.sortTmp = sortByKey(out[dst], ex.sortTmp)
	}
	k.stop(&res.bd.Compute)

	// Serialize blocks. Each (mapper, partition) block is its own encoder
	// stream; sender slot i encodes blocks i, i+senders, ... so the block
	// set is statically partitioned across the concurrent streams. The
	// encoders only read the heap (produce is done, and this executor
	// allocates nothing until the reduce stage), so the streams race only
	// on the §4.2 baddr claims, which is the point. A block is encoded into
	// its partition's buffer on the executor, which Put only reads, so
	// rounds 2+ encode into memory the last round grew.
	senders := c.senderSlots(p)
	if len(ex.batch) < senders {
		ex.batch = make([][]heap.Addr, senders)
	}
	serTime := make([]time.Duration, senders)
	serErr := make([]error, senders)
	encode := func(slot int) {
		// Codec-agnostic transfer span: baseline serializers never enter
		// internal/core, so the encode stream itself is the traced unit.
		sp := ex.RT.Trace.Span("transfer", "shuffle.encode")
		var recs, nbytes int64
		defer func() {
			serTime[slot] = k.elapsed()
			sp.Arg("bytes", nbytes).Arg("records", recs).Arg("slot", int64(slot)).End()
		}()
		for dst := slot; dst < p; dst += senders {
			if len(out[dst]) == 0 {
				continue
			}
			buf := &ex.blocks[dst]
			buf.Reset()
			buf.Grow(ex.blockBytes(len(out[dst])))
			enc := c.Codec.NewEncoder(ex.RT, buf)
			// The block goes to its encoder as one batch, in sorted order.
			batch := ex.batch[slot][:0]
			for _, r := range out[dst] {
				batch = append(batch, tab.At(r.slot))
			}
			ex.batch[slot] = batch
			if err := enc.WriteBatch(batch); err != nil {
				enc.Flush() // close the stream; output is discarded
				serErr[slot] = fmt.Errorf("serialize: %w", err)
				return
			}
			if err := enc.Flush(); err != nil {
				serErr[slot] = err
				return
			}
			recs += int64(len(out[dst]))
			nbytes += int64(buf.Len())
		}
	}
	k.start()
	fanOut(senders, encode)
	k.stop(&res.bd.Ser, serTime...)
	for _, err := range serErr {
		if err != nil {
			return res, err
		}
	}

	// Publish blocks to the transport, which measures whatever I/O it
	// really performs (sockets); ioCharge picks that or the modelled time
	// as the write-I/O charge.
	var written int64
	var putTime time.Duration
	for dst := 0; dst < p; dst++ {
		if len(out[dst]) == 0 {
			continue
		}
		block := ex.blocks[dst].Bytes()
		written += int64(len(block))
		res.bd.Records += int64(len(out[dst]))
		d, err := sh.Put(ex.ID, dst, block)
		if err != nil {
			return res, fmt.Errorf("publish block (%d→%d): %w", ex.ID, dst, err)
		}
		putTime += d
	}
	k.io(&res.bd.WriteIO, c.ioCharge(putTime, func(m netsim.CostModel) time.Duration { return m.WriteTime(written) }))
	ctrSpillBytes.Add(written)
	res.bd.ShuffleBytes = written
	if res.bd.Records > 0 {
		ex.recBytes = int((written + res.bd.Records - 1) / res.bd.Records)
	}
	c.sampleHeap(ex)
	return res, nil
}

// freer is a decoder that owns input buffers until told to release them
// (the explicit-free API of §3.2); baseline decoders are not.
type freer interface{ Free() }

// decodeBlock decodes one fetched block, appending its records to the
// executor's root table, and returns the owner of their input buffers (nil
// for a baseline codec). On failure it truncates the table back to where the
// attempt started and frees the input buffers the attempt created — the heap
// is exactly as it was before the attempt — and returns the decode error, so
// the caller's bounded re-fetch starts from a clean slate.
func (c *Cluster) decodeBlock(ex *Executor, block []byte) (f freer, err error) {
	mark := ex.recs.Len()
	dec := c.Codec.NewDecoder(ex.RT, bytes.NewReader(block))
	f, _ = dec.(freer)
	for {
		rec, rerr := dec.Read()
		if rerr != nil {
			if isEOF(rerr) {
				return f, nil
			}
			ex.recs.Truncate(mark)
			freeAll(f)
			return nil, rerr
		}
		ex.recs.Append(rec)
	}
}

// freeAll frees input buffers; release the records that lived in them first.
func freeAll(fs ...freer) {
	for _, f := range fs {
		if f != nil {
			f.Free()
		}
	}
}

// fetchTally is one task's fetch accounting. The tried bytes and the fetch
// time cover every attempt — a re-fetch does real I/O too, and an aborted
// stage must not understate the read I/O it consumed before giving up; the
// consumed bytes count each decoded block once (Figure 3(b) accounting).
type fetchTally struct {
	local, remote           int64         // unique bytes consumed
	triedLocal, triedRemote int64         // bytes fetched, every attempt
	fetchTime               time.Duration // measured I/O across every attempt
}

// fetchBlock brings block (src, dst) of round sh into ex's heap: its records
// are appended to ex's root table (none when nothing was published under
// that key) and the owner of their input buffers, if the codec has one, is
// returned. The block is dropped once decoded; the reduce task that fetched
// it frees the returned owner on every exit, the only thing that reclaims
// the block's pinned chunks or arena region.
//
// It runs the degradation ladder: a block whose fetch or decode fails (a
// torn transfer, a checksum mismatch, any *core.DecodeError) is re-fetched
// from the intact stored bytes up to maxFetchAttempts times; if every
// attempt fails, the stage aborts with a StageAbortError naming the
// publishing peer. A failed attempt leaves no root or input buffer behind;
// every attempt's decode, failed or not, is charged to the task's Deser.
func (c *Cluster) fetchBlock(ex *Executor, sh transport.Shuffle, src, dst int, t *fetchTally, k *taskClock) (freer, error) {
	var lastErr error
	for attempt := 1; attempt <= maxFetchAttempts; attempt++ {
		if attempt > 1 {
			ctrRefetches.Inc()
		}
		// Fetch returns a copy-on-damage view of the stored block; the
		// transport keeps the original until Drop.
		block, d, err := sh.Fetch(src, dst)
		t.fetchTime += d
		if err != nil {
			// A failed fetch (a torn stream the transport's own framing
			// rejected, a dead peer) rides the same ladder as a failed
			// decode: re-fetch, then abort.
			lastErr = fmt.Errorf("fetch block (%d→%d): %w", src, dst, err)
			continue
		}
		if len(block) == 0 {
			return nil, nil
		}
		n := int64(len(block))
		local := src == ex.ID
		if local {
			t.triedLocal += n
		} else {
			t.triedRemote += n
		}
		// Failpoint: the fetched copy is torn in flight. Only the copy is
		// damaged — the stored block stays intact, so a re-fetch can succeed.
		if fault.Eval(fault.DataflowFetchTorn) {
			block = append([]byte(nil), block...)
			block[len(block)/2] ^= 0xFF
		}
		k.start()
		f, err := c.decodeBlock(ex, block)
		d = k.stop(&k.res.bd.Deser)
		if err != nil {
			lastErr = fmt.Errorf("deserialize block (%d→%d): %w", src, dst, err)
			continue
		}
		if obs.Enabled() {
			ex.RT.Trace.Emit("transfer", "shuffle.decode", k.mark, d,
				obs.I64("bytes", n),
				obs.I64("src", int64(src)), obs.I64("dst", int64(dst)),
				obs.I64("attempt", int64(attempt)))
		}
		sh.Drop(src, dst)
		if local {
			t.local += n
		} else {
			t.remote += n
		}
		return f, nil
	}
	// The ladder's last rung: abort the stage.
	ctrStageAborts.Inc()
	return nil, &StageAbortError{
		Src: src, Dst: dst, Attempts: maxFetchAttempts, Err: lastErr,
	}
}

// reduceTask runs one executor's reduce side: it drains every partition it
// hosts, pulling that partition's block from every map worker through
// fetchBlock, then consumes the records. Every exit path empties the root
// table and frees the input buffers it acquired, so an aborted stage leaves
// no pins behind — and every exit path, the aborts included, charges the
// read I/O its fetches really did.
func (c *Cluster) reduceTask(ex *Executor, spec ShuffleSpec, sh transport.Shuffle, p int) (taskResult, error) {
	var res taskResult
	k := res.startClock(ex)
	var t fetchTally
	var freers []freer
	defer func() {
		ex.recs.Release()
		freeAll(freers...)
	}()
	var err error
	for dst := 0; dst < p && err == nil; dst++ {
		if c.OwnerOf(dst) != ex.ID {
			continue
		}
		for src := 0; src < c.Workers() && err == nil; src++ {
			var f freer
			f, err = c.fetchBlock(ex, sh, src, dst, &t, k)
			freers = append(freers, f)
		}
	}
	res.bd.LocalBytes = t.local
	res.bd.RemoteBytes = t.remote
	ctrLocalReadB.Add(t.local)
	if t.remote > 0 {
		// One remote fetch per task: the per-transfer latency unit of
		// CostModel.NetTime.
		ctrRemoteReadB.Add(t.remote)
		ctrRemoteFetches.Inc()
	}
	k.io(&res.bd.ReadIO, c.ioCharge(t.fetchTime, func(m netsim.CostModel) time.Duration {
		return m.FetchTime(t.triedLocal, t.triedRemote)
	}))
	if err != nil {
		return res, err
	}

	k.start()
	if spec.Consume != nil {
		if err := spec.Consume(ex, ex.recs.Slots()); err != nil {
			return res, fmt.Errorf("consume: %w", err)
		}
	}
	k.stop(&res.bd.Compute)
	// Sample the high-water mark while the received records and their
	// input buffers are still live — the receive side is where the §5.2
	// memory overhead peaks. The deferred release then drops them: Spark
	// keeps buffers only while the RDD is cached, and these records are not.
	c.sampleHeap(ex)
	return res, nil
}

func isEOF(err error) bool { return errors.Is(err, io.EOF) }

// Compute runs fn on every executor under the computation timer, outside
// any shuffle — for per-partition setup and iteration bookkeeping. With a
// parallel cluster the per-executor calls run concurrently (same contract
// as ShuffleSpec.Produce).
func (c *Cluster) Compute(fn func(ex *Executor) error) (metrics.Breakdown, error) {
	return c.runPerExecutor("compute", func(ex *Executor) (taskResult, error) {
		var res taskResult
		k := res.startClock(ex)
		err := fn(ex)
		k.stop(&res.bd.Compute)
		c.sampleHeap(ex)
		return res, err
	})
}
