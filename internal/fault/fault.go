// Package fault is the deterministic failpoint registry: named injection
// points threaded through the layers that can actually fail in production
// (registry exchanges, shuffle fetches, the Skyway decode path, allocation
// safepoints) are evaluated against an env-driven configuration, so chaos
// tests and operators can reproduce a specific failure schedule bit for bit.
//
// Configuration comes from the SKYWAY_FAULT environment variable (or
// Configure), in the same spirit as the SKYWAY_VERIFY and SKYWAY_TRACE knobs:
//
//	SKYWAY_FAULT = clause { ";" clause }
//	clause       = point ":" spec | "seed=" N         (at most one seed, applied
//	                                                  to every point wherever
//	                                                  it appears)
//	spec         = trigger { "*" modifier }
//	trigger      = "on" | "off" | "1in" N            (fire always / never /
//	                                                  pseudo-randomly with
//	                                                  probability 1/N)
//	modifier     = "after=" N                        (skip the first N hits)
//	             | "times=" N                        (fire at most N times)
//	             | "arg=" value                      (site-specific argument,
//	                                                  e.g. a delay duration)
//
// A point must be one of Catalog's names: a misspelled point would otherwise
// be armed and never fire. Example:
//
//	SKYWAY_FAULT='seed=42;core.chunk.bitflip:1in8*times=3;transport.peer.slow:on*arg=2ms'
//
// The "1inN" trigger is driven by a per-point splitmix64 stream seeded from
// the plan's seed clause (or Seed; 0 by default) and the point name, so a
// plan replays the same injection schedule on every run regardless of how
// other points interleave. Evaluation order within a point is its call
// order, which the single-goroutine-per-task execution model keeps
// deterministic.
//
// Zero cost when disabled: every public evaluation helper first checks one
// atomic bool, so production binaries with SKYWAY_FAULT unset pay a single
// atomic load per failpoint site. The package is stdlib-only (plus the
// in-repo obs counters).
package fault

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skyway/internal/obs"
)

// Injection counters, exported on /metrics.
var (
	ctrInjections = obs.NewCounter("skyway_fault_injections_total", "Failpoint firings across all points.")
	ctrEvals      = obs.NewCounter("skyway_fault_evals_total", "Failpoint evaluations while a fault plan was active.")
)

// tracer carries one span per firing when tracing is enabled.
var tracer = obs.NewTracer("fault")

// Error is the structured error an injected failure surfaces as. Call sites
// that need their own error shape (e.g. core.DecodeError) wrap it.
type Error struct {
	Point string // failpoint name, e.g. "registry.exchange.drop"
}

func (e *Error) Error() string { return "fault: injected failure at " + e.Point }

// point is one configured failpoint.
type point struct {
	name  string
	oneIn uint64 // 0 = always fire, 1<<63 flag for "off"
	off   bool
	after int64  // skip the first `after` would-be firings
	times int64  // fire at most `times` times; <0 = unlimited
	arg   string // site-specific argument

	mu    sync.Mutex
	rng   uint64 // splitmix64 state
	hits  int64  // times the trigger matched (before after/times gating)
	fired int64  // times the point actually fired
}

// plan is an immutable parsed configuration; the active plan is swapped
// atomically so hot-path readers never take a lock to find their point.
type plan struct {
	points map[string]*point
}

var (
	active  atomic.Bool
	current atomic.Pointer[plan]
	seed    atomic.Uint64
)

func init() {
	if spec := os.Getenv("SKYWAY_FAULT"); spec != "" {
		if err := Configure(spec); err != nil {
			// A malformed plan must not be half-applied silently: fail loud
			// at process start, like a bad flag would.
			panic(fmt.Sprintf("fault: bad SKYWAY_FAULT: %v", err))
		}
	}
}

// Active reports whether any failpoint is configured. Call sites use it (or
// the evaluation helpers, which check it first) to keep disabled runs at one
// atomic load per site.
func Active() bool { return active.Load() }

// Seed reseeds the per-point random streams and resets all counters; tests
// use it to replay a schedule. A plan's seed clause sets it too; the default
// is 0.
func Seed(s uint64) {
	seed.Store(s)
	if p := current.Load(); p != nil {
		for _, pt := range p.points {
			pt.mu.Lock()
			pt.rng = mix(s ^ hashName(pt.name))
			pt.hits, pt.fired = 0, 0
			pt.mu.Unlock()
		}
	}
}

// Configure installs a failpoint plan from a spec string (see the package
// comment for the grammar). An empty spec clears the plan.
func Configure(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		Reset()
		return nil
	}
	p := &plan{points: make(map[string]*point)}
	s, seeded := seed.Load(), false
	for _, entry := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if v, ok := strings.CutPrefix(entry, "seed="); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil || seeded {
				return fmt.Errorf("fault: %q: want one seed=N with N a uint64", entry)
			}
			s, seeded = n, true
			continue
		}
		name, rest, ok := strings.Cut(entry, ":")
		if !ok {
			return fmt.Errorf("fault: %q: want point:spec or seed=N", entry)
		}
		pt, err := parsePoint(strings.TrimSpace(name), strings.TrimSpace(rest))
		if err != nil {
			return err
		}
		p.points[pt.name] = pt
	}
	// Seeded only now, so a seed clause counts wherever it stands.
	seed.Store(s)
	for _, pt := range p.points {
		pt.rng = mix(s ^ hashName(pt.name))
	}
	current.Store(p)
	active.Store(len(p.points) > 0)
	return nil
}

// Reset clears the plan; all failpoints go quiet.
func Reset() {
	current.Store(nil)
	active.Store(false)
}

func parsePoint(name, spec string) (*point, error) {
	if !slices.Contains(Catalog(), name) {
		return nil, fmt.Errorf("fault: unknown point %q (see fault.Catalog)", name)
	}
	pt := &point{name: name, times: -1}
	parts := strings.Split(spec, "*")
	trigger := strings.TrimSpace(parts[0])
	switch {
	case trigger == "on" || trigger == "":
		pt.oneIn = 0
	case trigger == "off":
		pt.off = true
	case strings.HasPrefix(trigger, "1in"):
		n, err := strconv.ParseUint(trigger[3:], 10, 32)
		if err != nil || n == 0 {
			return nil, fmt.Errorf("fault: %s: bad trigger %q", name, trigger)
		}
		pt.oneIn = n
	default:
		return nil, fmt.Errorf("fault: %s: unknown trigger %q", name, trigger)
	}
	for _, mod := range parts[1:] {
		key, val, ok := strings.Cut(strings.TrimSpace(mod), "=")
		if !ok {
			return nil, fmt.Errorf("fault: %s: bad modifier %q", name, mod)
		}
		switch key {
		case "after":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("fault: %s: bad after=%q", name, val)
			}
			pt.after = n
		case "times":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("fault: %s: bad times=%q", name, val)
			}
			pt.times = n
		case "arg":
			pt.arg = val
		default:
			return nil, fmt.Errorf("fault: %s: unknown modifier %q", name, mod)
		}
	}
	return pt, nil
}

// hashName is FNV-1a over the point name, mixing the name into the seed so
// distinct points draw independent streams.
func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix is the splitmix64 output function; each Eval advances the point's
// state through it, giving a reproducible uniform stream.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// lookup finds the configured point for name, or nil.
func lookup(name string) *point {
	p := current.Load()
	if p == nil {
		return nil
	}
	return p.points[name]
}

// eval decides whether the point fires on this evaluation.
func (pt *point) eval() bool {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.off {
		return false
	}
	if pt.oneIn > 1 {
		pt.rng = mix(pt.rng)
		if pt.rng%pt.oneIn != 0 {
			return false
		}
	}
	pt.hits++
	if pt.hits <= pt.after {
		return false
	}
	if pt.times >= 0 && pt.fired >= pt.times {
		return false
	}
	pt.fired++
	return true
}

// Eval reports whether the named failpoint fires now. The zero-cost path:
// one atomic load when no plan is active.
func Eval(name string) bool {
	if !active.Load() {
		return false
	}
	ctrEvals.Inc()
	pt := lookup(name)
	if pt == nil || !pt.eval() {
		return false
	}
	ctrInjections.Inc()
	if obs.Enabled() {
		tracer.Emit("fault", name, time.Now(), 0)
	}
	return true
}

// Arg returns the configured site-specific argument for name (whether or not
// the point would fire), and whether the point is configured at all.
func Arg(name string) (string, bool) {
	if !active.Load() {
		return "", false
	}
	pt := lookup(name)
	if pt == nil {
		return "", false
	}
	return pt.arg, true
}

// Inject returns a *fault.Error when the named point fires, nil otherwise —
// the one-liner for error-returning failpoints.
func Inject(name string) error {
	if Eval(name) {
		return &Error{Point: name}
	}
	return nil
}

// Sleep fires the named point as a delay: when it fires, the goroutine
// sleeps for the point's arg duration (default 1ms) and Sleep reports true.
func Sleep(name string) bool {
	if !Eval(name) {
		return false
	}
	time.Sleep(DurationArg(name, time.Millisecond))
	return true
}

// DurationArg parses the point's arg as a time.Duration, falling back to
// def when absent or malformed.
func DurationArg(name string, def time.Duration) time.Duration {
	s, ok := Arg(name)
	if !ok || s == "" {
		return def
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return def
	}
	return d
}

// Snapshot returns the per-point firing counts of the active plan — bench
// binaries report it so a faulted run is visibly faulted.
func Snapshot() map[string]int64 {
	p := current.Load()
	if p == nil {
		return nil
	}
	out := make(map[string]int64, len(p.points))
	for name, pt := range p.points {
		pt.mu.Lock()
		out[name] = pt.fired
		pt.mu.Unlock()
	}
	return out
}

// Report writes the firing counts of the active plan to w, sorted by point
// name — bench binaries defer it so a faulted run is visibly faulted in its
// own output, not just slower or wronger.
func Report(w io.Writer) {
	snap := Snapshot()
	if snap == nil {
		return
	}
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\nfault injection report (seed %#x):\n", seed.Load())
	for _, name := range names {
		fmt.Fprintf(w, "  %-28s fired %d\n", name, snap[name])
	}
}

// Fired returns how many times the named point has fired.
func Fired(name string) int64 {
	pt := lookup(name)
	if pt == nil {
		return 0
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.fired
}
