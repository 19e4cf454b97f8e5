package fault

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"
)

// p and q are the two points most tests arm: any catalog names will do.
const (
	p = CoreWriteFail
	q = DataflowTaskDie
)

// configure installs a plan for the test and restores quiet at cleanup.
func configure(t *testing.T, spec string) {
	t.Helper()
	if err := Configure(spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(Reset)
}

func TestInactiveByDefault(t *testing.T) {
	Reset()
	if Active() {
		t.Fatal("active with no plan")
	}
	if Eval("core.chunk.bitflip") {
		t.Fatal("fired with no plan")
	}
	if err := Inject("core.chunk.bitflip"); err != nil {
		t.Fatalf("inject with no plan: %v", err)
	}
}

func TestOnFiresEveryTime(t *testing.T) {
	configure(t, p+":on")
	for i := 0; i < 5; i++ {
		if !Eval(p) {
			t.Fatalf("eval %d did not fire", i)
		}
	}
	if Fired(p) != 5 {
		t.Fatalf("fired = %d, want 5", Fired(p))
	}
	if Eval(q) {
		t.Fatal("unconfigured point fired")
	}
}

func TestOffNeverFires(t *testing.T) {
	configure(t, p+":off")
	for i := 0; i < 5; i++ {
		if Eval(p) {
			t.Fatal("off point fired")
		}
	}
}

func TestTimesBoundsFirings(t *testing.T) {
	configure(t, p+":on*times=2")
	fired := 0
	for i := 0; i < 10; i++ {
		if Eval(p) {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want 2", fired)
	}
}

func TestAfterSkipsPrefix(t *testing.T) {
	configure(t, p+":on*after=3")
	var pattern []bool
	for i := 0; i < 6; i++ {
		pattern = append(pattern, Eval(p))
	}
	want := []bool{false, false, false, true, true, true}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("eval %d = %v, want %v (pattern %v)", i, pattern[i], want[i], pattern)
		}
	}
}

func TestOneInIsDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []bool {
		configure(t, p+":1in4")
		Seed(seed)
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, Eval(p))
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at eval %d", i)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
	var fired int
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("1in4 fired %d/%d times — not probabilistic", fired, len(a))
	}
}

func TestPointsDrawIndependentStreams(t *testing.T) {
	configure(t, p+":1in2;"+q+":1in2")
	Seed(1)
	var pp, qq []bool
	for i := 0; i < 64; i++ {
		pp = append(pp, Eval(p))
		qq = append(qq, Eval(q))
	}
	same := true
	for i := range pp {
		if pp[i] != qq[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two points share one schedule")
	}
}

func TestInjectReturnsStructuredError(t *testing.T) {
	configure(t, p+":on*times=1")
	err := Inject(p)
	var fe *Error
	if !errors.As(err, &fe) || fe.Point != p {
		t.Fatalf("inject = %v, want *fault.Error{p}", err)
	}
	if err := Inject(p); err != nil {
		t.Fatalf("second inject = %v, want nil (times=1)", err)
	}
}

func TestArgAndDuration(t *testing.T) {
	configure(t, p+":on*arg=3ms;"+q+":on")
	if s, ok := Arg(p); !ok || s != "3ms" {
		t.Fatalf("arg = %q, %v", s, ok)
	}
	if d := DurationArg(p, time.Second); d != 3*time.Millisecond {
		t.Fatalf("duration = %v", d)
	}
	if d := DurationArg(q, time.Second); d != time.Second {
		t.Fatalf("default duration = %v", d)
	}
}

// TestParseErrors: each row fails for its own reason, named by the error.
func TestParseErrors(t *testing.T) {
	for _, tc := range []struct{ spec, why string }{
		{"noseparator", "want point:spec"},
		{p + ":maybe", "unknown trigger"},
		{p + ":1in0", "bad trigger"},
		{p + ":on*after=x", "bad after"},
		{p + ":on*times=-1", "bad times"},
		{p + ":on*bogus=1", "unknown modifier"},
		{":on", "unknown point"},
		{"core.chunk.bitflp:on", "unknown point"},
		{"seed=x;" + p + ":on", "want one seed=N"},
		{"seed=1;" + p + ":on;seed=2", "want one seed=N"},
	} {
		err := Configure(tc.spec)
		if err == nil {
			Reset()
			t.Errorf("Configure(%q) accepted", tc.spec)
		} else if !strings.Contains(err.Error(), tc.why) {
			t.Errorf("Configure(%q) = %v, want it to say %q", tc.spec, err, tc.why)
		}
	}
	Reset()
}

// TestSeedClause: a plan's seed=N replays the schedule Seed(N) gives,
// wherever the clause stands in the plan.
func TestSeedClause(t *testing.T) {
	t.Cleanup(func() { Seed(0) })
	run := func(spec string) []bool {
		configure(t, spec)
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, Eval(p))
		}
		return out
	}
	Seed(0)
	first := run("seed=7;" + p + ":1in4")
	Seed(0)
	last := run(p + ":1in4;seed=7")
	Seed(7)
	byCall := run(p + ":1in4")
	if !slices.Equal(first, last) || !slices.Equal(first, byCall) {
		t.Fatalf("seed=7 first, seed=7 last and Seed(7) gave different schedules:\n%v\n%v\n%v", first, last, byCall)
	}
}

func TestConfigureEmptyClears(t *testing.T) {
	configure(t, p+":on")
	if !Active() {
		t.Fatal("not active")
	}
	if err := Configure(""); err != nil {
		t.Fatal(err)
	}
	if Active() {
		t.Fatal("still active after clear")
	}
}

func TestSnapshotCounts(t *testing.T) {
	configure(t, p+":on*times=2;"+q+":off")
	for i := 0; i < 4; i++ {
		Eval(p)
		Eval(q)
	}
	snap := Snapshot()
	if snap[p] != 2 || snap[q] != 0 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestCatalogNamesAreUniqueAndWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range Catalog() {
		if seen[name] {
			t.Errorf("duplicate catalog name %s", name)
		}
		seen[name] = true
		if err := Configure(name + ":on"); err != nil {
			t.Errorf("catalog name %s does not parse: %v", name, err)
		}
	}
	Reset()
}
