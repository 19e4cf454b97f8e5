package datagen

import (
	"strings"
	"testing"
	"testing/quick"

	"skyway/internal/klass"
	"skyway/internal/vm"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Next() == NewRNG(2).Next() {
		t.Error("different seeds collide on first draw")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
		if r.Int63() < 0 {
			t.Fatal("Int63 negative")
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(3)
	z := NewZipf(r, 1000, 1.05)
	counts := make([]int, 1000)
	for i := 0; i < 20000; i++ {
		counts[z.Sample()]++
	}
	if counts[0] < counts[500]*5 {
		t.Errorf("no heavy head: rank0=%d rank500=%d", counts[0], counts[500])
	}
}

func TestGraphSpecsMatchPaperShapes(t *testing.T) {
	specs := PaperGraphs(1.0)
	if len(specs) != 4 {
		t.Fatalf("%d specs", len(specs))
	}
	// Published |E|/|V| ratios (Table 1).
	wantRatio := map[string]float64{
		"LiveJournal":  69.0 / 4.8,
		"Orkut":        117.0 / 3.0,
		"UK-2005":      936.0 / 39.5,
		"Twitter-2010": 1500.0 / 41.6,
	}
	for _, s := range specs {
		if s.AvgDegree != wantRatio[s.Name] {
			t.Errorf("%s degree %f, want %f", s.Name, s.AvgDegree, wantRatio[s.Name])
		}
	}
}

func TestGraphGeneration(t *testing.T) {
	g := GraphSpec{Name: "t", Vertices: 5000, AvgDegree: 8, Seed: 1}.Generate()
	if g.N != 5000 {
		t.Fatalf("N = %d", g.N)
	}
	ratio := float64(g.M) / float64(g.N)
	if ratio < 6 || ratio > 8.5 {
		t.Errorf("edge ratio %.1f far from requested 8", ratio)
	}
	// Power-law-ish: max degree well above average.
	if g.MaxDegree() < 5*int(ratio) {
		t.Errorf("max degree %d shows no skew", g.MaxDegree())
	}
	// Determinism.
	g2 := GraphSpec{Name: "t", Vertices: 5000, AvgDegree: 8, Seed: 1}.Generate()
	if g2.M != g.M {
		t.Error("same spec generated different graphs")
	}
	// No self loops.
	for v := range g.Adj {
		for _, u := range g.Adj[v] {
			if int(u) == v {
				t.Fatal("self loop")
			}
			if u < 0 || int(u) >= g.N {
				t.Fatal("edge out of range")
			}
		}
	}
}

func TestGraphByName(t *testing.T) {
	if _, err := GraphByName("LiveJournal", 1); err != nil {
		t.Error(err)
	}
	if _, err := GraphByName("nope", 1); err == nil {
		t.Error("unknown graph accepted")
	}
}

func TestMediaGenGraphShape(t *testing.T) {
	cp := klass.NewPath()
	MediaClasses(cp)
	rt, err := vm.NewRuntime(cp, vm.Options{Name: "mt"})
	if err != nil {
		t.Fatal(err)
	}
	g := NewMediaGen(rt, 1)
	mc, err := g.One(0)
	if err != nil {
		t.Fatal(err)
	}
	mck := rt.MustLoad(MediaContentClass)
	mk := rt.MustLoad(MediaClass)
	media := rt.GetRef(mc, mck.FieldByName("media"))
	if media == 0 {
		t.Fatal("no media")
	}
	uri := rt.GoString(rt.GetRef(media, mk.FieldByName("uri")))
	if !strings.Contains(uri, "keynote") {
		t.Errorf("uri = %q", uri)
	}
	images := rt.GetRef(mc, mck.FieldByName("images"))
	if rt.ArrayLen(images) != 2 {
		t.Errorf("%d images", rt.ArrayLen(images))
	}
	persons := rt.GetRef(media, mk.FieldByName("persons"))
	if rt.GoString(rt.ArrayGetRef(persons, 0)) != "Bill Gates" {
		t.Error("persons corrupted")
	}
}

func TestMediaBatch(t *testing.T) {
	cp := klass.NewPath()
	MediaClasses(cp)
	rt, err := vm.NewRuntime(cp, vm.Options{Name: "mb"})
	if err != nil {
		t.Fatal(err)
	}
	g := NewMediaGen(rt, 2)
	roots, release, err := g.Batch(50)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if len(roots) != 50 {
		t.Fatalf("%d roots", len(roots))
	}
	mck := rt.MustLoad(MediaContentClass)
	for _, r := range roots {
		if rt.KlassOf(r) != mck {
			t.Fatal("wrong root class")
		}
	}
}

func TestTPCHShape(t *testing.T) {
	db := GenTPCH(1.0, 5)
	if len(db.Regions) != 5 || len(db.Nations) != 25 {
		t.Errorf("dims: %d regions, %d nations", len(db.Regions), len(db.Nations))
	}
	if len(db.LineItems) < 3*len(db.Orders) {
		t.Errorf("lineitems (%d) not ~4x orders (%d)", len(db.LineItems), len(db.Orders))
	}
	if len(db.PartSupps) != 4*len(db.Parts) {
		t.Errorf("partsupp %d != 4x parts %d", len(db.PartSupps), len(db.Parts))
	}
	// Key integrity.
	nCust, nPart, nSupp := int32(len(db.Customers)), int32(len(db.Parts)), int32(len(db.Suppliers))
	for _, o := range db.Orders {
		if o.CustKey < 0 || o.CustKey >= nCust {
			t.Fatal("order custkey out of range")
		}
	}
	returned := 0
	for _, li := range db.LineItems {
		if li.PartKey < 0 || li.PartKey >= nPart || li.SuppKey < 0 || li.SuppKey >= nSupp {
			t.Fatal("lineitem FK out of range")
		}
		if li.ReceiptDate <= li.ShipDate {
			t.Fatal("receipt before shipment")
		}
		if li.ReturnFlag == 'R' {
			returned++
		}
	}
	if returned == 0 {
		t.Error("no returned items; QE would be empty")
	}
	// Determinism.
	db2 := GenTPCH(1.0, 5)
	if len(db2.LineItems) != len(db.LineItems) || db2.LineItems[0] != db.LineItems[0] {
		t.Error("same seed generated different data")
	}
}

func TestTextCorpus(t *testing.T) {
	lines := TextSpec{Lines: 100, WordsPerLine: 7, Vocabulary: 50, Seed: 4}.Generate()
	if len(lines) != 100 {
		t.Fatalf("%d lines", len(lines))
	}
	counts := make(map[string]int)
	for _, l := range lines {
		ws := strings.Fields(l)
		if len(ws) != 7 {
			t.Fatalf("line has %d words", len(ws))
		}
		for _, w := range ws {
			counts[w]++
		}
	}
	if len(counts) < 10 || len(counts) > 50 {
		t.Errorf("vocabulary used: %d", len(counts))
	}
}

// Property: scaled graph specs always have at least the floor vertex count
// and preserve the requested ratio.
func TestGraphScaleQuick(t *testing.T) {
	f := func(scale float64) bool {
		if scale < 0 {
			scale = -scale
		}
		scale = 0.01 + scale/1e17 // keep tiny
		for _, s := range PaperGraphs(scale) {
			if s.Vertices < 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
