package dataflow

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"skyway/internal/core"
	"skyway/internal/datagen"
	"skyway/internal/fault"
	"skyway/internal/klass"
	"skyway/internal/serial"
	"skyway/internal/transport"
)

// skywayNames are the Skyway serializers, one per receive path: the ladder
// tests run under both.
var skywayNames = []string{"skyway", "skyway-arena"}

// newSkywayCluster boots a cluster running the named Skyway codec — the
// fault tests target the hardened decode path, which baseline serializers
// never enter.
func newSkywayCluster(t *testing.T, name string) *Cluster {
	t.Helper()
	codec, err := serial.ByName(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp := klass.NewPath()
	WorkloadClasses(cp)
	return newTestCluster(t, codec, cp)
}

// faultWordCount runs WordCount under the named Skyway codec and the fault
// plan spec. Whatever the outcome — a clean run, a retried block, an aborted
// stage — every executor must end with the root count it started with: that
// is what shows the truncate-to-mark rollback and the abort paths emptying
// their tables.
func faultWordCount(t *testing.T, name, spec string) (int64, []int, error) {
	t.Helper()
	if err := fault.Configure(spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)
	lines := datagen.TextSpec{Lines: 600, WordsPerLine: 8, Vocabulary: 200, Seed: 11}.Generate()
	parts := [][]string{lines[:200], lines[200:400], lines[400:]}
	c := newSkywayCluster(t, name)
	before := rootCounts(c)
	_, total, err := RunWordCount(c, parts)
	if after := rootCounts(c); !slices.Equal(after, before) {
		t.Errorf("roots per executor after the run %v, before %v (err: %v)", after, before, err)
	}
	return total, excludedPeers(c), err
}

// excludedPeers lists the executors the degradation ladder excluded, in
// ascending ID order. Empty on every healthy run.
func excludedPeers(c *Cluster) []int {
	c.excludedMu.Lock()
	defer c.excludedMu.Unlock()
	out := make([]int, 0, len(c.excluded))
	for id := range c.excluded {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// rootCounts returns each executor's live root count (handles plus
// root-table slots).
func rootCounts(c *Cluster) []int {
	n := make([]int, len(c.Execs))
	for i, ex := range c.Execs {
		n[i] = ex.RT.GC.Stats().HandleCount
	}
	return n
}

// TestTransientTornFetchRetriesToIdenticalResult: one shuffle block arrives
// torn; the bounded re-fetch decodes the intact stored block and the job
// completes with a result bit-identical to the fault-free run. No peer is
// excluded.
func TestTransientTornFetchRetriesToIdenticalResult(t *testing.T) {
	for _, name := range skywayNames {
		t.Run(name, func(t *testing.T) {
			want, _, err := faultWordCount(t, name, "")
			if err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			got, excluded, err := faultWordCount(t, name, fault.DataflowFetchTorn+":on*times=1")
			if err != nil {
				t.Fatalf("run under transient torn fetch: %v", err)
			}
			if fault.Fired(fault.DataflowFetchTorn) != 1 {
				t.Fatalf("torn failpoint fired %d times, want 1", fault.Fired(fault.DataflowFetchTorn))
			}
			if got != want {
				t.Fatalf("result under retry = %d, fault-free = %d", got, want)
			}
			if len(excluded) != 0 {
				t.Fatalf("transient fault excluded peers %v", excluded)
			}
		})
	}
}

// TestPersistentTornFetchAbortsStage: every fetch of a block arrives torn;
// the ladder exhausts its re-fetch budget, excludes the peer, and aborts the
// stage with a StageAbortError wrapping the checksum DecodeError — no panic,
// no wrong answer.
func TestPersistentTornFetchAbortsStage(t *testing.T) {
	for _, name := range skywayNames {
		t.Run(name, func(t *testing.T) {
			_, excluded, err := faultWordCount(t, name, fault.DataflowFetchTorn+":on")
			if err == nil {
				t.Fatal("persistent torn fetch completed without error")
			}
			var abort *StageAbortError
			if !errors.As(err, &abort) {
				t.Fatalf("error is %T (%v), want *StageAbortError", err, err)
			}
			if abort.Attempts != maxFetchAttempts {
				t.Errorf("abort after %d attempts, want %d", abort.Attempts, maxFetchAttempts)
			}
			de, ok := core.AsDecodeError(err)
			if !ok {
				t.Fatalf("abort does not wrap a DecodeError: %v", err)
			}
			if de.Kind != core.DecodeChecksum {
				t.Errorf("decode kind = %s, want %s (torn bytes must fail the CRC)", de.Kind, core.DecodeChecksum)
			}
			found := false
			for _, id := range excluded {
				if id == abort.Src {
					found = true
				}
			}
			if !found {
				t.Errorf("excluded peers %v do not include aborting src %d", excluded, abort.Src)
			}
		})
	}
}

// TestTaskDieAbortsStageCleanly: an executor dies mid-stage; the stage
// aborts with the injected fault surfaced and the executor named.
func TestTaskDieAbortsStageCleanly(t *testing.T) {
	for _, name := range skywayNames {
		t.Run(name, func(t *testing.T) {
			_, _, err := faultWordCount(t, name, fault.DataflowTaskDie+":on*times=1")
			if err == nil {
				t.Fatal("task death completed without error")
			}
			var fe *fault.Error
			if !errors.As(err, &fe) || fe.Point != fault.DataflowTaskDie {
				t.Fatalf("error %v does not wrap the task-die fault", err)
			}
		})
	}
}

// TestFetchSlowKeepsResultsIdentical: a slow peer charges modelled read
// time; results must not change.
func TestFetchSlowKeepsResultsIdenticalAcrossRuns(t *testing.T) {
	for _, name := range skywayNames {
		t.Run(name, func(t *testing.T) {
			want, _, err := faultWordCount(t, name, "")
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := faultWordCount(t, name, fault.DataflowFetchSlow+":on*arg=2ms")
			if err != nil {
				t.Fatalf("run under slow fetch: %v", err)
			}
			if got != want {
				t.Fatalf("slow-peer run changed result: %d != %d", got, want)
			}
		})
	}
}

// tornTransport is a measured transport whose every fetch fails after
// spending d on the wire.
type tornTransport struct {
	transport.Transport
	d time.Duration
}

func (tornTransport) Measured() bool { return true }

func (t tornTransport) NewShuffle(seq int) (transport.Shuffle, error) {
	sh, err := t.Transport.NewShuffle(seq)
	return tornShuffle{sh, t.d}, err
}

type tornShuffle struct {
	transport.Shuffle
	d time.Duration
}

func (s tornShuffle) Fetch(src, dst int) ([]byte, time.Duration, error) {
	return nil, s.d, errors.New("stream torn")
}

// TestFailedFetchTimeIsCharged: under a measured transport every attempt
// counts, the failed ones included — a stage that aborts because every fetch
// tore still reports the socket time those fetches took.
func TestFailedFetchTimeIsCharged(t *testing.T) {
	const d = 7 * time.Millisecond
	c := newSkywayCluster(t, "skyway")
	c.Transport = tornTransport{c.Transport, d}
	bd, err := c.RunShuffle(ShuffleSpec{Produce: func(*Executor, Emit) error { return nil }})
	var abort *StageAbortError
	if !errors.As(err, &abort) {
		t.Fatalf("error is %T (%v), want *StageAbortError", err, err)
	}
	if want := maxFetchAttempts * d; bd.ReadIO < want {
		t.Errorf("ReadIO = %v, want at least %v (%d failed fetches of %v)", bd.ReadIO, want, maxFetchAttempts, d)
	}
}

// TestDecodeBlockRollsBackToMark: a block whose decode fails part-way — here
// a truncated one, which a per-record baseline decoder reads well into before
// it notices — leaves the executor's root table exactly at the mark the
// attempt started from, earlier blocks' records untouched, and no input
// buffer behind; the intact block then decodes on top of them. The ladder
// tests above flip one bit in a one-segment block, which the segment CRC
// rejects before a single record is yielded, so they never reach this path.
func TestDecodeBlockRollsBackToMark(t *testing.T) {
	cpBase := klass.NewPath()
	WorkloadClasses(cpBase)
	for name, mk := range testCodecs(t, cpBase) {
		t.Run(name, func(t *testing.T) {
			cp := klass.NewPath()
			WorkloadClasses(cp)
			c := newTestCluster(t, nil, cp)
			c.Codec = mk(c)
			c.shuffleStart()
			snd, ex := c.Execs[0], c.Execs[1]
			mk := snd.RT.MustLoad(RankMsgClass)
			dstF := mk.FieldByName("dst")

			const n = 200
			var buf bytes.Buffer
			enc := c.Codec.NewEncoder(snd.RT, &buf)
			for i := 0; i < n; i++ {
				msg := snd.RT.MustNew(mk)
				snd.RT.SetLong(msg, dstF, int64(i))
				if err := enc.Write(msg); err != nil {
					t.Fatal(err)
				}
			}
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
			block := buf.Bytes()

			// Two records from an "earlier block" sit below the mark.
			rk := ex.RT.MustLoad(RankMsgClass)
			rdstF := rk.FieldByName("dst")
			for _, v := range []int64{-1, -2} {
				msg := ex.RT.MustNew(rk)
				ex.RT.SetLong(msg, rdstF, v)
				ex.recs.Append(msg)
			}
			defer ex.recs.Release()
			check := func(stage string, want int) {
				t.Helper()
				if ex.recs.Len() != want || ex.RT.GC.Stats().HandleCount != want {
					t.Fatalf("%s: table holds %d records, collector counts %d roots, want %d",
						stage, ex.recs.Len(), ex.RT.GC.Stats().HandleCount, want)
				}
				for i, v := range []int64{-1, -2} {
					if got := ex.RT.GetLong(ex.recs.At(i), rdstF); got != v {
						t.Errorf("%s: earlier record %d reads %d, want %d", stage, i, got, v)
					}
				}
			}

			if _, _, err := c.decodeBlock(ex, block[:len(block)-5]); err == nil {
				t.Fatal("truncated block decoded without error")
			}
			check("after the failed attempt", 2)
			if used := ex.RT.Heap.BufferUsed(); used != 0 {
				t.Errorf("failed attempt left %d input-buffer bytes", used)
			}

			f, _, err := c.decodeBlock(ex, block)
			if err != nil {
				t.Fatalf("intact block: %v", err)
			}
			check("after the intact block", 2+n)
			for i := 0; i < n; i++ {
				if got := ex.RT.GetLong(ex.recs.At(2+i), rdstF); got != int64(i) {
					t.Fatalf("record %d reads dst %d", i, got)
				}
			}
			ex.recs.Release()
			freeAll(f)
		})
	}
}
