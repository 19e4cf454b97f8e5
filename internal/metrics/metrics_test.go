package metrics

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sample() Breakdown {
	return Breakdown{
		Compute: 100 * time.Millisecond,
		Ser:     40 * time.Millisecond,
		WriteIO: 10 * time.Millisecond,
		Deser:   30 * time.Millisecond,
		ReadIO:  20 * time.Millisecond,

		ShuffleBytes: 1000,
		LocalBytes:   400,
		RemoteBytes:  600,
		Records:      10,
	}
}

func TestTotalAndAdd(t *testing.T) {
	b := sample()
	if b.Total() != 200*time.Millisecond {
		t.Errorf("Total = %v", b.Total())
	}
	var acc Breakdown
	acc.Add(b)
	acc.Add(b)
	if acc.Total() != 400*time.Millisecond || acc.ShuffleBytes != 2000 || acc.Records != 20 {
		t.Errorf("Add accumulated wrong: %+v", acc)
	}
}

// GC is a component like the others: Sum counts it, Add carries it, String
// names it. AddStage folds an aborted stage in too and passes its error on.
func TestGCIsAComponent(t *testing.T) {
	b := sample()
	b.GC = 5 * time.Millisecond
	if b.Sum() != 205*time.Millisecond {
		t.Errorf("Sum = %v, want GC counted", b.Sum())
	}
	if !strings.Contains(b.String(), " gc=5ms ") {
		t.Errorf("String() missing gc: %s", b.String())
	}
	var acc Breakdown
	acc.Add(b)
	abort := errors.New("stage aborted")
	if err := acc.AddStage(b, abort); err != abort {
		t.Errorf("AddStage returned %v, want the stage's error", err)
	}
	if acc.GC != 10*time.Millisecond || acc.Sum() != 410*time.Millisecond {
		t.Errorf("Add/AddStage: gc %v sum %v", acc.GC, acc.Sum())
	}
}

func TestWallVsSum(t *testing.T) {
	b := sample()
	if b.Sum() != 200*time.Millisecond {
		t.Errorf("Sum = %v", b.Sum())
	}
	// Sequential runs leave Wall zero: Total falls back to the component
	// sum, so historical numbers are unchanged.
	if b.Wall != 0 || b.Total() != b.Sum() {
		t.Errorf("zero-Wall Total = %v, want %v", b.Total(), b.Sum())
	}
	// Parallel runs record measured wall-clock, which Total prefers; the
	// components keep summing.
	b.Wall = 120 * time.Millisecond
	if b.Total() != 120*time.Millisecond {
		t.Errorf("Wall-based Total = %v", b.Total())
	}
	if b.Sum() != 200*time.Millisecond {
		t.Errorf("Sum changed with Wall: %v", b.Sum())
	}
	// Stages are barriers, so walls add across Add.
	acc := b
	acc.Add(b)
	if acc.Wall != 240*time.Millisecond || acc.Sum() != 400*time.Millisecond {
		t.Errorf("Add: wall %v sum %v", acc.Wall, acc.Sum())
	}
	// SDShare stays a share of CPU+IO component time (a wall denominator
	// could push it past 1 when components overlap).
	want := float64(70) / 200
	if math.Abs(b.SDShare()-want) > 1e-9 {
		t.Errorf("SDShare with Wall = %f, want %f", b.SDShare(), want)
	}
	if !strings.Contains(b.String(), "wall=120ms") {
		t.Errorf("String() missing wall: %s", b.String())
	}
}

// Regression: folding a sequential breakdown (Wall=0, elapsed = component
// sum) into a wall-based parallel one must not drop the sequential run's
// entire time from Total(). Pre-fix, Add merged Wall by plain addition, so
// parallel(Wall=120ms) + sequential(sum=200ms) totalled 120ms.
func TestAddMixedSequentialParallel(t *testing.T) {
	parallel := sample() // sum = 200ms
	parallel.Wall = 120 * time.Millisecond
	sequential := sample() // Wall = 0, Total = Sum = 200ms

	acc := parallel
	acc.Add(sequential)
	if want := 320 * time.Millisecond; acc.Total() != want {
		t.Errorf("parallel+sequential Total = %v, want %v (sequential stage dropped)", acc.Total(), want)
	}
	if acc.Sum() != 400*time.Millisecond {
		t.Errorf("components must still sum: %v", acc.Sum())
	}

	// Symmetric: a sequential accumulator absorbing a parallel stage must
	// become wall-based rather than discarding the parallel wall.
	acc = sequential
	acc.Add(parallel)
	if want := 320 * time.Millisecond; acc.Total() != want {
		t.Errorf("sequential+parallel Total = %v, want %v", acc.Total(), want)
	}

	// Sequential-only accumulation stays component-summed (Wall zero).
	acc = sequential
	acc.Add(sequential)
	if acc.Wall != 0 || acc.Total() != 400*time.Millisecond {
		t.Errorf("sequential-only Add: wall=%v total=%v", acc.Wall, acc.Total())
	}

	// A zero Breakdown folded into a parallel one changes nothing.
	acc = parallel
	acc.Add(Breakdown{})
	if acc.Total() != 120*time.Millisecond {
		t.Errorf("parallel+zero Total = %v", acc.Total())
	}
}

func TestSDShare(t *testing.T) {
	b := sample()
	want := float64(70) / 200
	if math.Abs(b.SDShare()-want) > 1e-9 {
		t.Errorf("SDShare = %f, want %f", b.SDShare(), want)
	}
	var zero Breakdown
	if zero.SDShare() != 0 {
		t.Error("zero breakdown SDShare not 0")
	}
}

func TestNormalize(t *testing.T) {
	b := sample()
	half := Breakdown{
		Compute: 50 * time.Millisecond,
		Ser:     20 * time.Millisecond,
		WriteIO: 5 * time.Millisecond,
		Deser:   15 * time.Millisecond,
		ReadIO:  10 * time.Millisecond,

		ShuffleBytes: 500,
	}
	r := Normalize(half, b)
	if math.Abs(r.Overall-0.5) > 1e-9 || math.Abs(r.Size-0.5) > 1e-9 {
		t.Errorf("Normalize = %+v", r)
	}
	// Zero base yields NaN, not a panic or Inf.
	r = Normalize(b, Breakdown{})
	if !math.IsNaN(r.Ser) || !math.IsNaN(r.Size) {
		t.Errorf("zero-base Normalize = %+v", r)
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("Geomean(2,8) = %f", g)
	}
	if !math.IsNaN(Geomean(nil)) {
		t.Error("Geomean(nil) not NaN")
	}
	if !math.IsNaN(Geomean([]float64{1, -1})) {
		t.Error("Geomean with negative not NaN")
	}
}

func TestSummaryCells(t *testing.T) {
	var s Summary
	s.Add(Ratio{Overall: 0.5, Ser: 0.4, WriteIO: 1.0, Deser: 0.2, ReadIO: 0.9, Size: 1.5})
	s.Add(Ratio{Overall: 2.0, Ser: 0.9, WriteIO: 1.2, Deser: 0.3, ReadIO: 1.1, Size: 3.0})
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	cell := s.Cell("Overall")
	if !strings.Contains(cell, "0.50 ~ 2.00") || !strings.Contains(cell, "(1.00)") {
		t.Errorf("Overall cell = %q", cell)
	}
	if s.Cell("nope") != "-" {
		t.Error("unknown column did not return placeholder")
	}
	row := s.Row()
	for _, col := range []string{"Overall", "Ser", "Write", "Des", "Read", "Size"} {
		if !strings.Contains(row, col+"=") {
			t.Errorf("Row missing %s: %q", col, row)
		}
	}
}

func TestSummarySkipsNaN(t *testing.T) {
	var s Summary
	s.Add(Ratio{Overall: 1.0, Ser: math.NaN()})
	s.Add(Ratio{Overall: 2.0, Ser: 0.5})
	if cell := s.Cell("Ser"); !strings.Contains(cell, "0.50 ~ 0.50") {
		t.Errorf("Ser cell = %q", cell)
	}
}

func TestBreakdownString(t *testing.T) {
	s := sample().String()
	for _, frag := range []string{"total=200ms", "ser=40ms", "deser=30ms", "local=400", "remote=600"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing %q: %s", frag, s)
		}
	}
}

// Property: normalization by self is all ones (when every component is
// nonzero), and Geomean of [x] is x.
func TestNormalizeSelfQuick(t *testing.T) {
	f := func(a, b, c, d, e uint16, n uint16) bool {
		bd := Breakdown{
			Compute: time.Duration(a) + 1, Ser: time.Duration(b) + 1,
			WriteIO: time.Duration(c) + 1, Deser: time.Duration(d) + 1,
			ReadIO: time.Duration(e) + 1, ShuffleBytes: int64(n) + 1,
		}
		r := Normalize(bd, bd)
		ok := func(v float64) bool { return math.Abs(v-1) < 1e-9 }
		return ok(r.Overall) && ok(r.Ser) && ok(r.WriteIO) && ok(r.Deser) && ok(r.ReadIO) && ok(r.Size)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
