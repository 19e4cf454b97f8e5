package dataflow

import (
	"errors"
	"testing"
	"time"

	"skyway/internal/core"
	"skyway/internal/datagen"
	"skyway/internal/fault"
	"skyway/internal/klass"
	"skyway/internal/serial"
	"skyway/internal/transport"
)

// newSkywayCluster boots a cluster running the Skyway codec — the fault
// tests target the hardened decode path, which baseline serializers never
// enter.
func newSkywayCluster(t *testing.T) *Cluster {
	t.Helper()
	cp := klass.NewPath()
	WorkloadClasses(cp)
	return newTestCluster(t, serial.NewSkywayCodec(), cp)
}

func faultWordCount(t *testing.T, spec string) (int64, []int, error) {
	t.Helper()
	if err := fault.Configure(spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)
	lines := datagen.TextSpec{Lines: 600, WordsPerLine: 8, Vocabulary: 200, Seed: 11}.Generate()
	parts := [][]string{lines[:200], lines[200:400], lines[400:]}
	c := newSkywayCluster(t)
	_, total, err := RunWordCount(c, parts)
	return total, c.ExcludedPeers(), err
}

// TestTransientTornFetchRetriesToIdenticalResult: one shuffle block arrives
// torn; the bounded re-fetch decodes the intact stored block and the job
// completes with a result bit-identical to the fault-free run. No peer is
// excluded.
func TestTransientTornFetchRetriesToIdenticalResult(t *testing.T) {
	want, _, err := faultWordCount(t, "")
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	got, excluded, err := faultWordCount(t, fault.DataflowFetchTorn+":on*times=1")
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
}

// TestPersistentTornFetchAbortsStage: every fetch of a block arrives torn;
// the ladder exhausts its re-fetch budget, excludes the peer, and aborts the
// stage with a StageAbortError wrapping the checksum DecodeError — no panic,
// no wrong answer.
func TestPersistentTornFetchAbortsStage(t *testing.T) {
	_, excluded, err := faultWordCount(t, fault.DataflowFetchTorn+":on")
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
}

// TestTaskDieAbortsStageCleanly: an executor dies mid-stage; the stage
// aborts with the injected fault surfaced and the executor named.
func TestTaskDieAbortsStageCleanly(t *testing.T) {
	_, _, err := faultWordCount(t, fault.DataflowTaskDie+":on*times=1")
	if err == nil {
		t.Fatal("task death completed without error")
	}
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Point != fault.DataflowTaskDie {
		t.Fatalf("error %v does not wrap the task-die fault", err)
	}
}

// TestFetchSlowKeepsResultsIdentical: a slow peer charges modelled read
// time; results must not change.
func TestFetchSlowKeepsResultsIdenticalAcrossRuns(t *testing.T) {
	want, _, err := faultWordCount(t, "")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := faultWordCount(t, fault.DataflowFetchSlow+":on*arg=2ms")
	if err != nil {
		t.Fatalf("run under slow fetch: %v", err)
	}
	if got != want {
		t.Fatalf("slow-peer run changed result: %d != %d", got, want)
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
	c := newSkywayCluster(t)
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
