package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// withTracing turns span recording on for one test, with every ring empty
// before and after it.
func withTracing(t *testing.T) {
	t.Helper()
	was := enabled.Load()
	enabled.Store(true)
	resetRings()
	t.Cleanup(func() {
		resetRings()
		enabled.Store(was)
	})
}

// resetRings clears all recorded spans. The tracer registry survives, so
// tracer pointers held by runtimes stay valid.
func resetRings() {
	for _, t := range allTracers() {
		t.mu.Lock()
		t.next, t.wrapped = 0, false
		t.mu.Unlock()
	}
}

// spanCount is how many spans t's ring holds.
func spanCount(t *Tracer) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wrapped {
		return SpanRingSize
	}
	return t.next
}

func TestSpanDisabledIsNil(t *testing.T) {
	was := enabled.Load()
	enabled.Store(false)
	defer enabled.Store(was)
	tr := NewTracer("t-disabled")
	sp := tr.Span("cat", "name")
	if sp != nil {
		t.Fatal("Span with tracing disabled should be nil")
	}
	// Nil-safe chain: must not panic and must not record.
	sp.Arg("k", 1).End()
	var nilT *Tracer
	nilT.Span("cat", "name").End()
	nilT.Emit("cat", "name", time.Now(), time.Second)
	if n := spanCount(tr); n != 0 {
		t.Fatalf("disabled tracer recorded %d spans", n)
	}
}

func TestSpanRecordingAndDump(t *testing.T) {
	withTracing(t)
	tr := NewTracer("t-record")
	sp := tr.Span("gc", "scavenge")
	sp.Arg("promoted_bytes", 123).End()
	tr.Emit("io", "fetch", time.Now(), 5*time.Millisecond, I64("bytes", 77))
	if n := spanCount(tr); n != 2 {
		t.Fatalf("spanCount = %d, want 2", n)
	}

	var buf bytes.Buffer
	if err := WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var sawScavenge, sawFetch, sawThreadName bool
	for _, ev := range doc.TraceEvents {
		switch ev["name"] {
		case "scavenge":
			sawScavenge = true
			if ev["cat"] != "gc" {
				t.Errorf("scavenge cat = %v", ev["cat"])
			}
			args, _ := ev["args"].(map[string]any)
			if args["promoted_bytes"] != float64(123) {
				t.Errorf("scavenge args = %v", args)
			}
		case "fetch":
			sawFetch = true
			if dur, _ := ev["dur"].(float64); dur < 4999 || dur > 5001 {
				t.Errorf("fetch dur = %v µs, want ~5000", ev["dur"])
			}
		case "thread_name":
			args, _ := ev["args"].(map[string]any)
			if args["name"] == "t-record" {
				sawThreadName = true
			}
		}
	}
	if !sawScavenge || !sawFetch || !sawThreadName {
		t.Errorf("trace missing events: scavenge=%v fetch=%v thread=%v", sawScavenge, sawFetch, sawThreadName)
	}
}

func TestTracerDedupByName(t *testing.T) {
	if NewTracer("t-dedup") != NewTracer("t-dedup") {
		t.Fatal("NewTracer did not dedup by name")
	}
}

func TestRingWrapsKeepingTail(t *testing.T) {
	withTracing(t)
	tr := NewTracer("t-wrap")
	start := time.Now()
	for i := 0; i < SpanRingSize+10; i++ {
		tr.Emit("c", "s", start, time.Duration(i))
	}
	if n := spanCount(tr); n != SpanRingSize {
		t.Fatalf("spanCount = %d, want %d", n, SpanRingSize)
	}
	// Oldest surviving span is #10 (0-9 were overwritten).
	var first time.Duration
	seen := false
	tr.eachSpan(func(s *span) {
		if !seen {
			first = s.dur
			seen = true
		}
	})
	if first != 10 {
		t.Fatalf("oldest span dur = %d, want 10", first)
	}
}

func TestConcurrentEmit(t *testing.T) {
	withTracing(t)
	tr := NewTracer("t-conc")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Span("c", "s").Arg("i", int64(i)).End()
			}
		}()
	}
	wg.Wait()
	if n := spanCount(tr); n != 800 {
		t.Fatalf("spanCount = %d, want 800", n)
	}
}

func TestCountersAndMetricsExport(t *testing.T) {
	c := NewCounter("skyway_test_events_total", "test counter")
	if NewCounter("skyway_test_events_total", "other help") != c {
		t.Fatal("NewCounter did not dedup by name")
	}
	before := c.Value()
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotone
	if c.Value()-before != 42 {
		t.Fatalf("counter delta = %d, want 42", c.Value()-before)
	}

	RegisterGauge("skyway_test_level", "test gauge", func() float64 { return 2.5 })
	var buf bytes.Buffer
	if err := WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{
		"# TYPE skyway_test_events_total counter",
		"# HELP skyway_test_events_total test counter",
		"# TYPE skyway_test_level gauge",
		"skyway_test_level 2.5",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("metrics output missing %q:\n%s", frag, out)
		}
	}
	// Gauge re-registration replaces the callback, not the series.
	RegisterGauge("skyway_test_level", "test gauge", func() float64 { return 9 })
	buf.Reset()
	if err := WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "# TYPE skyway_test_level gauge") != 1 {
		t.Error("gauge re-registration duplicated the series")
	}
	if !strings.Contains(buf.String(), "skyway_test_level 9") {
		t.Error("gauge re-registration did not replace the callback")
	}
}

func TestWriteTraceFile(t *testing.T) {
	withTracing(t)
	NewTracer("t-file").Span("c", "s").End()
	path := t.TempDir() + "/trace.json"
	if err := WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace file not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Error("trace file missing traceEvents")
	}
}
