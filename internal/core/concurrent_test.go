package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"skyway/internal/heap"
)

// gatedWriter blocks its first Write until released, so a WriteObject call
// can be held in flight deliberately.
type gatedWriter struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.once.Do(func() {
		close(g.started)
		<-g.release
	})
	return len(p), nil
}

// ShuffleStart must be a barrier against in-flight writers: the phase bump
// wholesale-invalidates the previous phase's baddr claims, so letting sID
// advance mid-traversal would let a writer publish claims composed with a
// stale phase (§4.2). The sequential harness never exercised this.
func TestShuffleStartWaitsForInflightWrite(t *testing.T) {
	snd, _, sky := testCluster(t)
	d := newDate(t, snd, 2020, 1, 1)
	dp := snd.Pin(d)
	defer dp.Release()

	g := &gatedWriter{started: make(chan struct{}), release: make(chan struct{})}
	// The Date fits the buffer and its Year4D does not: the call flushes —
	// and blocks — midway through the root's graph.
	w := sky.NewWriter(g, WithBufferSize(48))
	done := make(chan error, 1)
	go func() { done <- w.WriteObject(dp.Addr()) }()
	<-g.started

	before := sky.Phase()
	bumped := make(chan struct{})
	go func() {
		sky.ShuffleStart()
		close(bumped)
	}()
	select {
	case <-bumped:
		t.Fatal("ShuffleStart returned while a WriteObject was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	if got := sky.Phase(); got != before {
		t.Fatalf("phase advanced to %d under an in-flight writer", got)
	}

	close(g.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	<-bumped
	if got := sky.Phase(); got != before+1 {
		t.Errorf("phase = %d after ShuffleStart, want %d", got, before+1)
	}
}

// Concurrent writers sharing one heap, a batch of roots each (the phase guard
// is held per batch, so all four hold its read side at once), all roots
// reaching one shared chain: exactly one stream claims each shared
// object's baddr word per phase, every other stream must resolve it through
// its hash-table fallback, and every output buffer must still decode to a
// complete private copy (§4.2 "Support for Threads"). Run under -race and
// SKYWAY_VERIFY this doubles as the memory-model check for the CAS path.
func TestConcurrentWritersShareChainAcrossRoots(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	ck := snd.MustLoad("Cell")
	pk := snd.MustLoad("Pair")
	vF, nF := ck.FieldByName("v"), ck.FieldByName("next")

	// A 200-cell chain every root points into.
	const chainLen = 200
	var chainSum float64
	head := snd.MustNew(ck)
	hp := snd.Pin(head)
	defer hp.Release()
	snd.SetDouble(hp.Addr(), vF, 0)
	for i := 1; i < chainLen; i++ {
		c := snd.MustNew(ck)
		snd.SetDouble(c, vF, float64(i))
		chainSum += float64(i)
		// Prepend so one allocation at a time stays reachable.
		snd.SetRef(c, nF, hp.Addr())
		hp.Release()
		hp = snd.Pin(c)
	}

	const writers, rootsPer = 4, 8
	roots := make([][]heap.Addr, writers)
	for i := range roots {
		for j := 0; j < rootsPer; j++ {
			p := snd.MustNew(pk)
			snd.SetRef(p, pk.FieldByName("a"), hp.Addr())
			roots[i] = append(roots[i], p)
			h := snd.Pin(p)
			defer h.Release()
		}
	}

	bufs := make([]bytes.Buffer, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := sky.NewWriter(&bufs[i])
			if errs[i] = w.WriteObjects(roots[i]); errs[i] == nil {
				errs[i] = w.Close()
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	if sky.Snapshot().OverflowHits == 0 {
		t.Error("no overflow-table hits despite cross-stream sharing")
	}

	// Every stream decodes to rootsPer complete copies of the graph.
	rck := rcv.MustLoad("Cell")
	rpk := rcv.MustLoad("Pair")
	rvF, rnF := rck.FieldByName("v"), rck.FieldByName("next")
	for i := range bufs {
		r := NewReader(rcv, &bufs[i])
		for j := 0; j < rootsPer; j++ {
			got, err := r.ReadObject()
			if err != nil {
				t.Fatalf("stream %d root %d: %v", i, j, err)
			}
			var sum float64
			n := 0
			for c := rcv.GetRef(got, rpk.FieldByName("a")); c != heap.Null; c = rcv.GetRef(c, rnF) {
				sum += rcv.GetDouble(c, rvF)
				n++
			}
			if n != chainLen || sum != chainSum {
				t.Fatalf("stream %d root %d: chain %d cells sum %v, want %d cells sum %v",
					i, j, n, sum, chainLen, chainSum)
			}
		}
		r.Free()
	}
}

// Concurrent writers sharing a 1 MiB long[] that every root reaches through
// a long[][], behind a private array of its own: one stream claims the big
// array's baddr word, the others resolve it through their overflow tables,
// and each stream sends it once, from the heap, in a segment of its own in
// the middle of a traversal. Every stream decodes to roots that share their
// copy of it. Run under -race and SKYWAY_VERIFY this is the memory-model
// check for reading an object's image straight from the heap while other
// streams claim its header.
func TestConcurrentWritersShareBigArray(t *testing.T) {
	snd, rcv, sky := testCluster(t)
	big, bigVals := bigArray(t, snd, rand.New(rand.NewSource(4)))
	hk, lk := snd.MustLoad("long[][]"), snd.MustLoad("long[]")

	const writers, rootsPer = 4, 3
	roots := make([][]heap.Addr, writers)
	for i := range roots {
		for j := 0; j < rootsPer; j++ {
			own := snd.MustNewArray(lk, 1)
			snd.ArraySetLong(own, 0, int64(i*rootsPer+j))
			oh := snd.Pin(own)
			defer oh.Release()
			holder := snd.MustNewArray(hk, 2)
			snd.ArraySetRef(holder, 0, big.Addr())
			snd.ArraySetRef(holder, 1, oh.Addr())
			h := snd.Pin(holder)
			defer h.Release()
			roots[i] = append(roots[i], h.Addr())
		}
	}

	before := sky.Snapshot().OverflowHits
	bufs := make([]bytes.Buffer, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := sky.NewWriter(&bufs[i])
			if errs[i] = w.WriteObjects(roots[i]); errs[i] == nil {
				errs[i] = w.Close()
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	if hits := sky.Snapshot().OverflowHits - before; hits < writers-1 {
		t.Errorf("%d overflow-table hits, want at least %d: every stream but one resolves the shared array there", hits, writers-1)
	}

	image := uint32(snd.Heap.Layout().ArrayHeaderSize()) + bigElems*8
	for i := range bufs {
		wire := bufs[i].Bytes()
		alone := 0
		for _, off := range wireFrames(t, wire) {
			if binary.BigEndian.Uint32(wire[off+1:]) == image {
				alone++
			}
		}
		if alone != 1 {
			t.Errorf("stream %d has %d segment(s) holding just the shared array, want 1", i, alone)
		}
		r := NewReader(rcv, &bufs[i])
		var first heap.Addr
		for j := 0; j < rootsPer; j++ {
			got, err := r.ReadObject()
			if err != nil {
				t.Fatalf("stream %d root %d: %v", i, j, err)
			}
			arr := rcv.ArrayGetRef(got, 0)
			if j == 0 {
				first = arr
				checkLongs(t, rcv, arr, bigVals)
			} else if arr != first {
				t.Errorf("stream %d root %d has its own copy of the shared array", i, j)
			}
			if v := rcv.ArrayGetLong(rcv.ArrayGetRef(got, 1), 0); v != int64(i*rootsPer+j) {
				t.Errorf("stream %d root %d: private array holds %d, want %d", i, j, v, i*rootsPer+j)
			}
		}
		r.Free()
	}
}
