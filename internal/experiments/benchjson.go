package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// BenchEntry is one figure cell of the benchmark trajectory: the per-figure
// totals plus GC and buffer accounting, serialized to BENCH_spark.json /
// BENCH_flink.json, the checked-in record of the reproduction.
type BenchEntry struct {
	Figure     string `json:"figure"`          // "fig3", "fig8a", "fig8b"
	App        string `json:"app,omitempty"`   // Spark workload (WC/PR/CC/TC)
	Graph      string `json:"graph,omitempty"` // input graph name
	Query      string `json:"query,omitempty"` // Flink query (QA..QE)
	Serializer string `json:"serializer"`      // java/kryo/skyway/flink-builtin

	TotalNS int64   `json:"total_ns"` // Breakdown.Total
	SumNS   int64   `json:"sum_ns"`   // Breakdown.Sum (component sum)
	WallNS  int64   `json:"wall_ns"`  // Breakdown.Wall (0 when sequential)
	SDShare float64 `json:"sd_share"` // S/D fraction of the component sum

	ShuffleBytes int64 `json:"shuffle_bytes"`
	RemoteBytes  int64 `json:"remote_bytes"`
	Records      int64 `json:"records"`

	GCPauses      int   `json:"gc_pauses"`
	GCPauseNS     int64 `json:"gc_pause_ns"`
	GCFullGCs     int   `json:"gc_full_gcs"`
	GCPromotionFG int   `json:"gc_promotion_full_gcs"`

	BufferPeak uint64 `json:"buffer_peak,omitempty"`
}

// BenchFile is the checked-in trajectory document.
type BenchFile struct {
	Engine  string       `json:"engine"` // "spark" or "flink"
	Entries []BenchEntry `json:"entries"`
}

// Key identifies an entry across runs.
func (e BenchEntry) Key() string {
	return fmt.Sprintf("%s/%s%s%s/%s", e.Figure, e.App, e.Graph, e.Query, e.Serializer)
}

// NewBenchFile assembles an engine's trajectory from its figures' cells.
func NewBenchFile(engine string, cells []Cell) BenchFile {
	f := BenchFile{Engine: engine}
	for _, c := range cells {
		bd, gcs := c.Breakdown, c.GC
		f.Entries = append(f.Entries, BenchEntry{
			Figure:        c.Figure,
			App:           string(c.App),
			Graph:         c.Graph,
			Query:         string(c.Query),
			Serializer:    c.Serializer,
			TotalNS:       int64(bd.Total()),
			SumNS:         int64(bd.Sum()),
			WallNS:        int64(bd.Wall),
			SDShare:       bd.SDShare(),
			ShuffleBytes:  bd.ShuffleBytes,
			RemoteBytes:   bd.RemoteBytes,
			Records:       bd.Records,
			GCPauses:      gcs.Pauses,
			GCPauseNS:     int64(gcs.TotalPause()),
			GCFullGCs:     gcs.FullGCs,
			GCPromotionFG: gcs.PromotionFullGCs,
			BufferPeak:    c.BufferPeak,
		})
	}
	sort.Slice(f.Entries, func(i, j int) bool { return f.Entries[i].Key() < f.Entries[j].Key() })
	return f
}

// Write saves the trajectory as indented JSON.
func (f BenchFile) Write(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadBenchFile loads a trajectory document.
func ReadBenchFile(path string) (BenchFile, error) {
	var f BenchFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	err = json.Unmarshal(b, &f)
	return f, err
}

// exactColumns are the columns of an entry that are a function of the code
// and the input alone — bytes, records, collections, buffer residency — and
// so repeat bit for bit between runs on any host. They are what the paper
// matrix gates; its time columns are a record, not a gate (time is gated by
// `benchmark -compare`, which has the repeats and quartiles to do it).
var exactColumns = []struct {
	name string
	get  func(BenchEntry) int64
}{
	{"shuffle_bytes", func(e BenchEntry) int64 { return e.ShuffleBytes }},
	{"remote_bytes", func(e BenchEntry) int64 { return e.RemoteBytes }},
	{"records", func(e BenchEntry) int64 { return e.Records }},
	{"buffer_peak", func(e BenchEntry) int64 { return int64(e.BufferPeak) }},
	{"gc_pauses", func(e BenchEntry) int64 { return int64(e.GCPauses) }},
	{"gc_full_gcs", func(e BenchEntry) int64 { return int64(e.GCFullGCs) }},
}

// EntryDiff is one baseline entry set against the current run.
type EntryDiff struct {
	Key string
	// Mismatch lists what fails the gate: each exact column that differs,
	// as "name base -> cur", or the entry's absence from cur.
	Mismatch []string
	// Total and GCPause are cur/base ratios of total_ns and gc_pause_ns (0
	// where base is 0), for information only: one sample on a drifting host
	// decides nothing.
	Total, GCPause float64
}

// Failed reports whether the entry fails the gate.
func (d EntryDiff) Failed() bool { return len(d.Mismatch) > 0 }

// CompareBench sets every entry of base against its namesake in cur. An
// entry fails when cur lacks it or any exact column differs; entries new in
// cur are ignored (the trajectory is allowed to grow).
func CompareBench(base, cur BenchFile) []EntryDiff {
	curBy := make(map[string]BenchEntry, len(cur.Entries))
	for _, e := range cur.Entries {
		curBy[e.Key()] = e
	}
	ratio := func(cur, base int64) float64 {
		if base <= 0 {
			return 0
		}
		return float64(cur) / float64(base)
	}
	out := make([]EntryDiff, 0, len(base.Entries))
	for _, b := range base.Entries {
		d := EntryDiff{Key: b.Key()}
		if c, ok := curBy[d.Key]; !ok {
			d.Mismatch = []string{"missing from the current run"}
		} else {
			for _, col := range exactColumns {
				if bv, cv := col.get(b), col.get(c); bv != cv {
					d.Mismatch = append(d.Mismatch, fmt.Sprintf("%s %d -> %d", col.name, bv, cv))
				}
			}
			d.Total, d.GCPause = ratio(c.TotalNS, b.TotalNS), ratio(c.GCPauseNS, b.GCPauseNS)
		}
		out = append(out, d)
	}
	return out
}
