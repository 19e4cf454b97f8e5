package dataflow

import (
	"errors"
	"testing"

	"skyway/internal/fault"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/metrics"
	"skyway/internal/serial"
	"skyway/internal/vm"
)

// The closure-shipping path of §2.1: a DateParser-like object created on the
// driver must reach every worker before tasks referencing it can run there.

func closurePath() *klass.Path {
	cp := klass.NewPath()
	WorkloadClasses(cp)
	cp.MustDefine(&klass.ClassDef{Name: "DateParser", Fields: []klass.FieldDef{
		{Name: "format", Kind: klass.Ref, Class: vm.StringClass},
		{Name: "lenient", Kind: klass.Bool},
	}})
	return cp
}

// newClosureCluster boots a cluster over closurePath running the named
// serializer.
func newClosureCluster(t *testing.T, serializer string, cfg Config) *Cluster {
	t.Helper()
	codec, err := serial.ByName(serializer, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(closurePath(), cfg, codec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// broadcastParser builds the closure on the driver and broadcasts it.
func broadcastParser(c *Cluster) ([]heap.Addr, metrics.Breakdown, error) {
	pk := c.Driver.MustLoad("DateParser")
	parser := c.Driver.MustNew(pk)
	ph := c.Driver.Pin(parser)
	defer ph.Release()
	fs := c.Driver.MustNewString("yyyy-MM-dd")
	c.Driver.SetRef(ph.Addr(), pk.FieldByName("format"), fs)
	c.Driver.SetBool(ph.Addr(), pk.FieldByName("lenient"), true)
	return c.Broadcast(ph.Addr())
}

func checkParserCopies(t *testing.T, c *Cluster, copies []heap.Addr) {
	t.Helper()
	for i, ex := range c.Execs {
		k := ex.RT.MustLoad("DateParser")
		if !ex.RT.GetBool(copies[i], k.FieldByName("lenient")) {
			t.Errorf("worker %d: bool field lost", i)
		}
		f := ex.RT.GetRef(copies[i], k.FieldByName("format"))
		if ex.RT.GoString(f) != "yyyy-MM-dd" {
			t.Errorf("worker %d: captured string corrupted", i)
		}
	}
}

func TestBroadcastClosure(t *testing.T) {
	for _, mode := range []string{"java", "skyway"} {
		t.Run(mode, func(t *testing.T) {
			c := newClosureCluster(t, mode, Config{Workers: 3, Heap: smallHeap()})
			copies, bd, err := broadcastParser(c)
			if err != nil {
				t.Fatal(err)
			}
			if len(copies) != 3 {
				t.Fatalf("%d copies", len(copies))
			}
			if bd.Ser == 0 || bd.Deser == 0 || bd.ShuffleBytes == 0 {
				t.Errorf("broadcast breakdown incomplete: %+v", bd)
			}
			checkParserCopies(t, c, copies)
		})
	}
}

// TestBroadcastTornFetch: a broadcast rides the same degradation ladder as a
// shuffle block. Fault-free, its breakdown is W network transfers of the
// payload; a copy torn once in flight is re-fetched and every executor still
// gets the closure; copies torn on every fetch abort the stage with a
// StageAbortError and leave no handle, input buffer or arena region behind
// on any executor — including the executors that had already received
// theirs when a later one gave up.
func TestBroadcastTornFetch(t *testing.T) {
	const workers = 3
	boot := func(t *testing.T, serializer, plan string) *Cluster {
		t.Helper()
		if err := fault.Configure(plan); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fault.Reset)
		// Sequential tasks, whatever SKYWAY_PARALLEL says: the plans below
		// count fetches in executor order.
		return newClosureCluster(t, serializer, Config{Workers: workers, Heap: smallHeap(), ParallelTasks: 1})
	}
	for _, serializer := range []string{"skyway", "skyway-arena"} {
		t.Run(serializer, func(t *testing.T) {
			c := boot(t, serializer, "")
			copies, clean, err := broadcastParser(c)
			if err != nil {
				t.Fatalf("fault-free broadcast: %v", err)
			}
			checkParserCopies(t, c, copies)
			n := clean.ShuffleBytes / workers
			if n == 0 || clean.ShuffleBytes != n*workers || clean.RemoteBytes != clean.ShuffleBytes || clean.Records != workers {
				t.Errorf("fault-free accounting: %+v", clean)
			}
			if want := workers * c.Model.NetTime(n); clean.WriteIO != 0 || clean.ReadIO != want {
				t.Errorf("fault-free I/O: WriteIO %v ReadIO %v, want 0 and %v", clean.WriteIO, clean.ReadIO, want)
			}

			c = boot(t, serializer, fault.DataflowFetchTorn+":on*times=1")
			copies, retried, err := broadcastParser(c)
			if err != nil {
				t.Fatalf("broadcast under a transient torn fetch: %v", err)
			}
			if fault.Fired(fault.DataflowFetchTorn) != 1 {
				t.Fatalf("torn failpoint fired %d times, want 1", fault.Fired(fault.DataflowFetchTorn))
			}
			checkParserCopies(t, c, copies)
			if retried.ReadIO <= clean.ReadIO || retried.ShuffleBytes != clean.ShuffleBytes {
				t.Errorf("re-fetch accounting: ReadIO %v (fault-free %v), bytes %d (fault-free %d)",
					retried.ReadIO, clean.ReadIO, retried.ShuffleBytes, clean.ShuffleBytes)
			}
			if ex := excludedPeers(c); len(ex) != 0 {
				t.Errorf("transient fault excluded peers %v", ex)
			}

			// after=N lets the first N executors receive their copy before
			// every later fetch arrives torn.
			for src, plan := range []string{":on", ":on*after=1"} {
				c := boot(t, serializer, fault.DataflowFetchTorn+plan)
				handles := rootCounts(c)
				_, _, err := broadcastParser(c)
				var abort *StageAbortError
				if !errors.As(err, &abort) {
					t.Fatalf("%s: error is %T (%v), want *StageAbortError", plan, err, err)
				}
				if abort.Stage != "broadcast" || abort.Src != src || abort.Attempts != maxFetchAttempts {
					t.Errorf("%s: abort %+v, want stage broadcast, src %d, %d attempts", plan, abort, src, maxFetchAttempts)
				}
				for _, ex := range c.Execs {
					if hc := ex.RT.GC.Stats().HandleCount; hc != handles[ex.ID] {
						t.Errorf("%s: executor %d holds %d handles, %d before the call", plan, ex.ID, hc, handles[ex.ID])
					}
					if used := ex.RT.Heap.BufferUsed(); used != 0 {
						t.Errorf("%s: executor %d left with %d input-buffer bytes", plan, ex.ID, used)
					}
					if r := ex.RT.Arena.Regions(); r != 0 {
						t.Errorf("%s: executor %d left with %d arena regions", plan, ex.ID, r)
					}
				}
			}
		})
	}
}
