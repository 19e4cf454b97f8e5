package core

import (
	"bytes"
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
