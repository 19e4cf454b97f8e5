package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// failedKeys runs the gate and returns the keys of the entries that fail it.
func failedKeys(base, cur BenchFile) []string {
	var keys []string
	for _, d := range CompareBench(base, cur) {
		if d.Failed() {
			keys = append(keys, d.Key)
		}
	}
	return keys
}

// The paper matrix gates exactly what is a function of the code: one byte or
// one collection more fails it, a missing cell fails it, and no amount of
// time does.
func TestCompareBenchGatesExactColumnsOnly(t *testing.T) {
	base, err := ReadBenchFile(filepath.Join("..", "..", "BENCH_spark.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Entries) < 2 {
		t.Fatalf("baseline has %d entries", len(base.Entries))
	}
	edited := func(edit func(*BenchFile)) BenchFile {
		cur := BenchFile{Engine: base.Engine, Entries: append([]BenchEntry(nil), base.Entries...)}
		edit(&cur)
		return cur
	}
	victim := base.Entries[1].Key()
	triple := func(f *BenchFile) {
		f.Entries[1].TotalNS *= 3
		f.Entries[1].SumNS *= 3
		f.Entries[1].GCPauseNS += 1e6
	}
	for _, tc := range []struct {
		name string
		edit func(*BenchFile)
		want []string
	}{
		{"identical", func(*BenchFile) {}, nil},
		{"shuffle_bytes off by one", func(f *BenchFile) { f.Entries[1].ShuffleBytes++ }, []string{victim}},
		{"gc_pauses off by one", func(f *BenchFile) { f.Entries[1].GCPauses++ }, []string{victim}},
		{"missing entry", func(f *BenchFile) { f.Entries = append(f.Entries[:1], f.Entries[2:]...) }, []string{victim}},
		{"3x total_ns", triple, nil},
		{"entry new in cur", func(f *BenchFile) {
			e := f.Entries[1]
			e.Serializer = "skyway-next"
			e.ShuffleBytes /= 2
			f.Entries = append(f.Entries, e)
		}, nil},
	} {
		got := failedKeys(base, edited(tc.edit))
		if len(got) != len(tc.want) || (len(got) == 1 && got[0] != tc.want[0]) {
			t.Errorf("%s: failed entries %v, want %v", tc.name, got, tc.want)
		}
	}
	// The time columns are still reported.
	if d := CompareBench(base, edited(triple))[1]; d.Total != 3 {
		t.Errorf("total ratio of a tripled total_ns = %v, want 3", d.Total)
	}
}

// The checked-in matrix files are this schema's output: reading one and
// writing it back changes no byte.
func TestCheckedInBenchFilesRoundTrip(t *testing.T) {
	for _, name := range []string{"BENCH_spark.json", "BENCH_flink.json"} {
		path := filepath.Join("..", "..", name)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ReadBenchFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(t.TempDir(), name)
		if err := f.Write(out); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: ReadBenchFile → Write changed the file (%d bytes → %d)", name, len(want), len(got))
		}
	}
}
