// Package metrics defines the run-time breakdown the paper's evaluation
// reports (Figures 3 and 8): computation time, serialization time, shuffle
// write I/O, deserialization time, read I/O (network included), plus byte
// accounting split into locally and remotely fetched shuffle data.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Breakdown is one run's cost decomposition. CPU-side components (Compute,
// Ser, Deser) are measured; I/O components are modelled from byte counts by
// a netsim.CostModel, matching the paper's bandwidth-bound I/O; GC is the
// collector's measured pause time.
//
// The six component durations are per-node aggregates: they sum across
// executors, like the paper's per-node breakdown (§2.2). Wall, when set,
// is the run's end-to-end elapsed time; with tasks executing concurrently
// it is driven by the slowest executor of each stage and is therefore less
// than the component sum. Sequential runs leave Wall zero, in which case
// the component sum *is* the elapsed time.
type Breakdown struct {
	Compute time.Duration
	Ser     time.Duration
	WriteIO time.Duration
	Deser   time.Duration
	ReadIO  time.Duration
	// GC is the executors' stop-the-world collection pause time inside
	// the timed regions, taken off the component whose timer was running
	// when the collection struck (Produce's allocations used to put their
	// scavenges into Compute, a decode's into Deser).
	GC time.Duration

	// Wall is the end-to-end elapsed time of a run whose tasks executed
	// concurrently: per stage, the slowest executor's component sum;
	// across stages (which are barriers) those maxima add. Zero on
	// sequential runs.
	Wall time.Duration

	// ShuffleBytes is the total serialized shuffle volume; LocalBytes and
	// RemoteBytes split fetches by origin (Figure 3(b)).
	ShuffleBytes int64
	LocalBytes   int64
	RemoteBytes  int64

	// Records counts shuffled records, for sanity checks across codecs.
	Records int64
}

// Component is one named time component of a Breakdown.
type Component struct {
	Name string
	D    *time.Duration
}

// Components returns b's time components in report order. It is the one
// list of them: Sum, Add, String and every per-component report (task
// spans, the figures' tables) read it, so a component is added here once.
func (b *Breakdown) Components() [6]Component {
	return [...]Component{
		{"compute", &b.Compute}, {"ser", &b.Ser}, {"writeIO", &b.WriteIO},
		{"deser", &b.Deser}, {"readIO", &b.ReadIO}, {"gc", &b.GC},
	}
}

// Sum returns the added-up component time — the aggregate CPU and modelled
// I/O across all executors. For a sequential run this equals the elapsed
// time; for a parallel run it exceeds it.
func (b Breakdown) Sum() (t time.Duration) {
	for _, c := range b.Components() {
		t += *c.D
	}
	return t
}

// Total returns the end-to-end time: the measured wall-clock when the run
// recorded one (parallel execution), otherwise the component sum.
func (b Breakdown) Total() time.Duration {
	if b.Wall > 0 {
		return b.Wall
	}
	return b.Sum()
}

// Add accumulates other into b. Stages are barriers, so end-to-end times
// add: when either side is wall-based, the merged Wall is the sum of both
// sides' Totals — a sequential stage (Wall zero, elapsed time = component
// sum) folded into a parallel run contributes its component sum, not zero.
// (Plain `b.Wall += other.Wall` silently dropped the sequential side's
// entire elapsed time from Total.) Driver-side work adds itself as a
// Breakdown of its one component, so it reaches Total either way.
func (b *Breakdown) Add(other Breakdown) {
	if b.Wall > 0 || other.Wall > 0 {
		b.Wall = b.Total() + other.Total()
	}
	o := other.Components()
	for i, c := range b.Components() {
		*c.D += *o[i].D
	}
	b.ShuffleBytes += other.ShuffleBytes
	b.LocalBytes += other.LocalBytes
	b.RemoteBytes += other.RemoteBytes
	b.Records += other.Records
}

// AddStage adds one stage's breakdown to b and passes the stage's error on,
// so a job folds each stage in as it returns — an aborted stage's partial
// accounting (the read I/O its re-fetches did) included.
func (b *Breakdown) AddStage(stage Breakdown, err error) error {
	b.Add(stage)
	return err
}

// SDShare returns the fraction of time spent in S/D functions — the
// quantity §2.2 reports as >30% for Spark. The share is computed over the
// component sum so it stays a per-node CPU ratio, comparable between
// sequential and parallel runs (dividing the summed S/D time by a max-based
// wall-clock could exceed 1).
func (b Breakdown) SDShare() float64 {
	t := b.Sum()
	if t == 0 {
		return 0
	}
	return float64(b.Ser+b.Deser) / float64(t)
}

// String renders a one-line summary.
func (b Breakdown) String() string {
	s := fmt.Sprintf("total=%v", b.Total().Round(time.Millisecond))
	if b.Wall > 0 {
		s += fmt.Sprintf(" (wall=%v)", b.Wall.Round(time.Millisecond))
	}
	for _, c := range b.Components() {
		s += fmt.Sprintf(" %s=%v", c.Name, c.D.Round(time.Millisecond))
	}
	return s + fmt.Sprintf(" bytes=%d (local=%d remote=%d)", b.ShuffleBytes, b.LocalBytes, b.RemoteBytes)
}

// Ratio is one normalized comparison entry (a cell of Table 2 / Table 4).
type Ratio struct {
	Overall, Ser, WriteIO, Deser, ReadIO, Size float64
}

// Normalize divides b's components by base's, producing Table 2-style
// normalized performance (lower is better; size > 1 means more bytes).
func Normalize(b, base Breakdown) Ratio {
	div := func(x, y time.Duration) float64 {
		if y == 0 {
			return math.NaN()
		}
		return float64(x) / float64(y)
	}
	sz := math.NaN()
	if base.ShuffleBytes > 0 {
		sz = float64(b.ShuffleBytes) / float64(base.ShuffleBytes)
	}
	return Ratio{
		Overall: div(b.Total(), base.Total()),
		Ser:     div(b.Ser, base.Ser),
		WriteIO: div(b.WriteIO, base.WriteIO),
		Deser:   div(b.Deser, base.Deser),
		ReadIO:  div(b.ReadIO, base.ReadIO),
		Size:    sz,
	}
}

// Summary aggregates ratios into the min~max(geomean) cells of Table 2.
type Summary struct{ ratios []Ratio }

// Add appends one normalized run.
func (s *Summary) Add(r Ratio) { s.ratios = append(s.ratios, r) }

// Len returns the number of accumulated ratios.
func (s *Summary) Len() int { return len(s.ratios) }

type col struct {
	name string
	get  func(Ratio) float64
}

var columns = []col{
	{"Overall", func(r Ratio) float64 { return r.Overall }},
	{"Ser", func(r Ratio) float64 { return r.Ser }},
	{"Write", func(r Ratio) float64 { return r.WriteIO }},
	{"Des", func(r Ratio) float64 { return r.Deser }},
	{"Read", func(r Ratio) float64 { return r.ReadIO }},
	{"Size", func(r Ratio) float64 { return r.Size }},
}

// Cell formats one column as "lo ~ hi (geomean)" over the added ratios,
// skipping NaNs.
func (s *Summary) Cell(name string) string {
	for _, c := range columns {
		if c.name != name {
			continue
		}
		var vals []float64
		for _, r := range s.ratios {
			v := c.get(r)
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return "-"
		}
		sort.Float64s(vals)
		return fmt.Sprintf("%.2f ~ %.2f (%.2f)", vals[0], vals[len(vals)-1], Geomean(vals))
	}
	return "-"
}

// Row renders all columns, Table 2 style.
func (s *Summary) Row() string {
	parts := make([]string, len(columns))
	for i, c := range columns {
		parts[i] = c.name + "=" + s.Cell(c.name)
	}
	return strings.Join(parts, "  ")
}

// Geomean returns the geometric mean of vals.
func Geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	var logs float64
	for _, v := range vals {
		if v <= 0 {
			return math.NaN()
		}
		logs += math.Log(v)
	}
	return math.Exp(logs / float64(len(vals)))
}
