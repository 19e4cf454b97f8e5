package experiments

import (
	"math"
	"testing"

	"skyway/internal/batch"
	"skyway/internal/datagen"
	"skyway/internal/netsim"
)

func tinySparkConfig() SparkConfig {
	cfg := DefaultSparkConfig()
	cfg.GraphScale = 0.02
	cfg.PRIters = 2
	cfg.CCIters = 3
	return cfg
}

// checkGCCharge holds a cell's Breakdown.GC to its cluster's collectors:
// a cell that never paused charges no GC, and no cell charges more than its
// cluster paused in all (the driver's pauses are in the total, not in any
// executor task).
func checkGCCharge(t *testing.T, cell string, info RunInfo) {
	t.Helper()
	gc, paused := info.Breakdown.GC, info.GC.TotalPause()
	if (info.GC.Pauses == 0 && gc != 0) || gc < 0 || gc > paused {
		t.Errorf("%s: Breakdown.GC %v against %d pauses totalling %v", cell, gc, info.GC.Pauses, paused)
	}
}

func TestRunJSBSSmall(t *testing.T) {
	results, err := RunJSBS(60, netsim.Paper1GbE())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 16 {
		t.Fatalf("%d libraries", len(results))
	}
	seen := make(map[string]JSBSResult)
	for _, r := range results {
		if r.Ser <= 0 || r.Deser <= 0 || r.Bytes <= 0 {
			t.Errorf("%s has empty measurements: %+v", r.Lib, r)
		}
		seen[r.Lib] = r
	}
	for _, lib := range []string{"skyway", "kryo", "kryo-manual", "colfer", "java"} {
		if _, ok := seen[lib]; !ok {
			t.Errorf("library %s missing", lib)
		}
	}
	// Headline shape: Skyway moves more bytes than the compact codecs but
	// has the fastest deserialization.
	if seen["skyway"].Bytes <= seen["kryo"].Bytes {
		t.Error("skyway bytes not larger than kryo bytes")
	}
	for lib, r := range seen {
		if lib != "skyway" && r.Deser < seen["skyway"].Deser {
			t.Logf("note: %s deser (%v) beat skyway (%v) in this tiny run", lib, r.Deser, seen["skyway"].Deser)
		}
	}
}

func TestSparkRunDigestsAgree(t *testing.T) {
	cfg := tinySparkConfig()
	spec, err := datagen.GraphByName("LiveJournal", cfg.GraphScale)
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Generate()
	for _, app := range SparkApps() {
		var want float64
		for i, ser := range SparkSerializers() {
			info, err := SparkRunInfo(app, g, ser, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", app, ser, err)
			}
			if info.Breakdown.Records == 0 {
				t.Errorf("%s/%s shuffled nothing", app, ser)
			}
			if info.PeakHeap == 0 {
				t.Errorf("%s/%s peak heap not sampled", app, ser)
			}
			if info.Breakdown.Wall != 0 {
				t.Errorf("%s/%s reported wall time: the figure's cluster is not pinned to one task slot", app, ser)
			}
			checkGCCharge(t, string(app)+"/"+ser, info)
			if i == 0 {
				want = info.Digest
			} else if info.Digest != want {
				t.Errorf("%s: %s digest %v != %v", app, ser, info.Digest, want)
			}
		}
	}
}

func TestFig3SDShare(t *testing.T) {
	res, err := RunFig3(tinySparkConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d serializers", len(res))
	}
	for _, r := range res {
		checkGCCharge(t, "fig3/"+r.Serializer, r.RunInfo)
		// §2.2: S/D takes a substantial share under both serializers.
		if r.Breakdown.SDShare() < 0.10 {
			t.Errorf("%s S/D share %.1f%% implausibly low", r.Serializer, r.Breakdown.SDShare()*100)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	cfg := tinySparkConfig()
	spec, _ := datagen.GraphByName("LiveJournal", cfg.GraphScale)
	cells, err := RunSparkMatrix(cfg, []datagen.GraphSpec{spec}, []SparkApp{PR, TC})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*len(SparkSerializers()) {
		t.Fatalf("%d cells", len(cells))
	}
	for _, c := range cells {
		checkGCCharge(t, c.Name()+"/"+c.Serializer, c.RunInfo)
	}
	sums := Table2(cells)
	if sums["kryo"].Len() != 2 || sums["skyway"].Len() != 2 {
		t.Fatalf("summary lens: kryo=%d skyway=%d", sums["kryo"].Len(), sums["skyway"].Len())
	}
}

func TestMemOverheadPositive(t *testing.T) {
	res, err := RunMemOverhead(tinySparkConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("%d apps", len(res))
	}
	for _, r := range res {
		// The baddr word adds 8 bytes per object: overhead must be
		// positive and below 100%.
		if r.OverheadFraction <= 0 || r.OverheadFraction > 1 {
			t.Errorf("%s overhead %.1f%% implausible", r.App, r.OverheadFraction*100)
		}
	}
}

func TestExtraBytesComposition(t *testing.T) {
	rows, err := RunShuffleBytes(tinySparkConfig())
	if err != nil {
		t.Fatal(err)
	}
	eb := rows[1]
	if eb.App != PR {
		t.Fatalf("row 1 is %s, want PR", eb.App)
	}
	if eb.FullImage <= eb.Kryo {
		t.Error("skyway's object images not larger than kryo's bytes")
	}
	if eb.HeaderShare <= 0 {
		t.Error("no header share attributed")
	}
	// Headers dominate the extra bytes (paper: 51%).
	if eb.HeaderShare < eb.PtrShare {
		t.Errorf("headers (%.2f) below pointers (%.2f)", eb.HeaderShare, eb.PtrShare)
	}
}

func TestFlinkMatrixAndTable4(t *testing.T) {
	cfg := DefaultFlinkConfig()
	cfg.SF = 0.2
	cells, err := RunFlinkMatrix(cfg, []batch.Query{batch.QA, batch.QE})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("%d cells", len(cells))
	}
	digests := make(map[batch.Query]float64)
	for _, c := range cells {
		if c.Breakdown.Wall != 0 {
			t.Errorf("%s/%s reported wall time: the figure's cluster is not pinned to one task slot", c.Query, c.Serializer)
		}
		checkGCCharge(t, string(c.Query)+"/"+c.Serializer, c.RunInfo)
		if prev, ok := digests[c.Query]; ok && prev != c.Digest {
			t.Errorf("%s digests differ across serializers", c.Query)
		}
		digests[c.Query] = c.Digest
	}
	sum := Table4(cells)
	if sum.Len() != 2 {
		t.Fatalf("Table4 len %d", sum.Len())
	}
	row := sum.Row()
	if row == "" || math.IsNaN(0) {
		t.Error("empty Table 4 row")
	}
}

// The engine's Skyway wire carries a shuffled graph at close to its
// header-free floor — the field and element bytes alone (ROADMAP item 1): run
// headers, array lengths, delta top marks and stream framing together add at
// most a tenth on the 16-byte-payload PageRank and ConnectedComponents
// messages and a twentieth on TriangleCounting's adjacency arrays. No timing.
func TestShuffleBytesNearFloor(t *testing.T) {
	rows, err := RunShuffleBytes(tinySparkConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(SparkApps()) {
		t.Fatalf("%d rows for %d apps", len(rows), len(SparkApps()))
	}
	bound := map[SparkApp]float64{PR: 1.10, CC: 1.10, TC: 1.05}
	for _, r := range rows {
		t.Logf("%s: %d records, full image %.2f, wire %.2f, floor %.2f, kryo %.2f B/record",
			r.App, r.Records, r.FullImage, r.Wire, r.Floor, r.Kryo)
		if r.Floor <= 0 || r.Wire < r.Floor || r.Wire >= r.FullImage {
			t.Errorf("%s: wire %.2f B/record is not between the floor %.2f and the full image %.2f", r.App, r.Wire, r.Floor, r.FullImage)
		}
		if b, ok := bound[r.App]; ok && r.Wire > b*r.Floor {
			t.Errorf("%s: wire %.2f B/record is %.3fx the header-free floor %.2f, want at most %.2fx", r.App, r.Wire, r.Wire/r.Floor, r.Floor, b)
		}
	}
}
