package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer is the benchmark's own in-memory span recorder. Spans are recorded
// around the calls the benchmark makes into a layer — never inside the
// program under test, whose internal/obs tracing stays off — and written out
// as Chrome-trace JSON when the run ends. A nil *tracer records nothing, so
// the untraced phase runs the same code with every span call a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex // sender and receiver goroutines both record
	spans []span
}

type span struct {
	name   string
	parent int // index into spans; -1 for an iteration's root span
	iter   int // shared by every span of one iteration
	tid    int // Chrome-trace row: one per goroutine role
	start  time.Duration
	dur    time.Duration
	args   map[string]int64
}

// Chrome-trace rows.
const (
	tidMain = iota
	tidSender
	tidReceiver
)

// spanRef is a handle on an open span; the zero value is a no-op.
type spanRef struct {
	t    *tracer
	idx  int
	iter int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens iteration iter's root span.
func (t *tracer) root(name string, iter int) spanRef {
	if t == nil {
		return spanRef{}
	}
	return t.open(name, -1, iter, tidMain)
}

// child opens a span caused by s on Chrome-trace row tid.
func (s spanRef) child(name string, tid int) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	return s.t.open(name, s.idx, s.iter, tid)
}

func (t *tracer) open(name string, parent, iter, tid int) spanRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, iter: iter, tid: tid, start: time.Since(t.t0)})
	return spanRef{t: t, idx: len(t.spans) - 1, iter: iter}
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0)
	s.t.mu.Lock()
	s.t.spans[s.idx].dur = now - s.t.spans[s.idx].start
	s.t.mu.Unlock()
}

// arg attaches a counter to the span, so ratios are measured where the work
// happens.
func (s spanRef) arg(key string, v int64) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	sp := &s.t.spans[s.idx]
	if sp.args == nil {
		sp.args = make(map[string]int64)
	}
	sp.args[key] = v
	s.t.mu.Unlock()
}

// add records an already-measured child interval: a duration the callee
// reported itself (transport.Shuffle.Put) or one accumulated over many calls
// too short to span one by one (bcast-media's 25 000 streams an iteration).
func (s spanRef) add(name string, tid int, start time.Time, d time.Duration) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	c := s.child(name, tid)
	s.t.mu.Lock()
	sp := &s.t.spans[c.idx]
	sp.start = start.Sub(s.t.t0)
	sp.dur = d
	s.t.mu.Unlock()
	return c
}

// selfTimes returns every span's self time: its duration minus the part of
// that interval its child spans cover (children on different goroutines may
// overlap each other, so coverage is the union, not the sum).
func (t *tracer) selfTimes() []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make([][]iv, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			p := t.spans[s.parent]
			lo, hi := s.start, s.start+s.dur
			if lo < p.start {
				lo = p.start
			}
			if hi > p.start+p.dur {
				hi = p.start + p.dur
			}
			if hi > lo {
				kids[s.parent] = append(kids[s.parent], iv{lo, hi})
			}
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].lo < ks[b].lo })
		var covered, end time.Duration
		for _, k := range ks {
			if k.lo > end {
				end = k.lo
			}
			if k.hi > end {
				covered += k.hi - end
				end = k.hi
			}
		}
		self[i] = s.dur - covered
	}
	return self
}

// selfByName returns, per span name, the median over iterations of the self
// time spans of that name accumulated in one iteration, in seconds.
func (t *tracer) selfByName() map[string]float64 {
	self := t.selfTimes()
	perIter := make(map[string]map[int]float64)
	for i, s := range t.spans {
		m := perIter[s.name]
		if m == nil {
			m = make(map[int]float64)
			perIter[s.name] = m
		}
		m[s.iter] += self[i].Seconds()
	}
	out := make(map[string]float64, len(perIter))
	for name, m := range perIter {
		xs := make([]float64, 0, len(m))
		for _, v := range m {
			xs = append(xs, v)
		}
		out[name] = median(xs)
	}
	return out
}

// writeChrome dumps the spans as a Chrome-trace file (chrome://tracing,
// https://ui.perfetto.dev).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	self := t.selfTimes()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		args := map[string]int64{"id": int64(i), "parent": int64(s.parent), "iter": int64(s.iter), "self_ns": int64(self[i])}
		for k, v := range s.args {
			args[k] = v
		}
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid, Args: args,
			Ts: float64(s.start) / float64(time.Microsecond), Dur: float64(s.dur) / float64(time.Microsecond),
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
