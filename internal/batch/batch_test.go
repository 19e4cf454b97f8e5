package batch

import (
	"bytes"
	"io"
	"sort"
	"testing"

	"skyway/internal/dataflow"
	"skyway/internal/datagen"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/race"
	"skyway/internal/registry"
	"skyway/internal/serial"
	tcptransport "skyway/internal/transport/tcp"
	"skyway/internal/transport/tcp/tcptest"
	"skyway/internal/verify"
	"skyway/internal/vm"
)

func smallHeap() heap.Config {
	return heap.Config{
		EdenSize:     24 << 20,
		SurvivorSize: 2 << 20,
		OldSize:      96 << 20,
		BufferSize:   64 << 20,
		Layout:       klass.Layout{Baddr: true},
	}
}

// newTestCluster boots three small-heap task managers; cfg carries whatever
// else the test varies (ParallelTasks, Transport).
func newTestCluster(t *testing.T, cfg dataflow.Config, serializer string) *Cluster {
	t.Helper()
	cfg.Workers, cfg.Heap = 3, smallHeap()
	c, err := NewCluster(cfg, serializer)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTupleCodecRoundTrip(t *testing.T) {
	cp := klass.NewPath()
	TPCHClasses(cp)
	reg := registry.NewRegistry()
	snd, err := vm.NewRuntime(cp, vm.Options{Name: "s", Registry: registry.InProc{R: reg}})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := vm.NewRuntime(cp, vm.Options{Name: "r", Registry: registry.InProc{R: reg}})
	if err != nil {
		t.Fatal(err)
	}

	ck := snd.MustLoad(CustomerClass)
	row := snd.MustNew(ck)
	rh := snd.Pin(row)
	snd.SetInt(rh.Addr(), ck.FieldByName("custkey"), 42)
	snd.SetInt(rh.Addr(), ck.FieldByName("nationkey"), 7)
	snd.SetDouble(rh.Addr(), ck.FieldByName("acctbal"), -123.45)
	s := snd.MustNewString("BUILDING")
	snd.SetRef(rh.Addr(), ck.FieldByName("mktsegment"), s)
	// name left null.

	codec := NewTupleCodec(CustomerClass, nil)
	var buf bytes.Buffer
	enc := codec.NewEncoder(snd, &buf)
	if err := enc.Write(rh.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}

	dec := codec.NewDecoder(rcv, &buf)
	got, err := dec.Read()
	if err != nil {
		t.Fatal(err)
	}
	rck := rcv.MustLoad(CustomerClass)
	if rcv.GetInt(got, rck.FieldByName("custkey")) != 42 {
		t.Error("custkey corrupted")
	}
	if rcv.GetDouble(got, rck.FieldByName("acctbal")) != -123.45 {
		t.Error("acctbal corrupted")
	}
	if rcv.GoString(rcv.GetRef(got, rck.FieldByName("mktsegment"))) != "BUILDING" {
		t.Error("string corrupted")
	}
	if rcv.GetRef(got, rck.FieldByName("name")) != heap.Null {
		t.Error("null string not preserved")
	}
	if _, err := dec.Read(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
	rh.Release()
}

func TestTupleCodecLazyFields(t *testing.T) {
	cp := klass.NewPath()
	TPCHClasses(cp)
	reg := registry.NewRegistry()
	snd, _ := vm.NewRuntime(cp, vm.Options{Name: "s", Registry: registry.InProc{R: reg}})
	rcv, _ := vm.NewRuntime(cp, vm.Options{Name: "r", Registry: registry.InProc{R: reg}})

	ck := snd.MustLoad(CustomerClass)
	row := snd.MustNew(ck)
	rh := snd.Pin(row)
	snd.SetInt(rh.Addr(), ck.FieldByName("custkey"), 9)
	snd.SetDouble(rh.Addr(), ck.FieldByName("acctbal"), 55.5)
	s := snd.MustNewString("MACHINERY")
	snd.SetRef(rh.Addr(), ck.FieldByName("mktsegment"), s)

	// Only custkey is needed: strings and acctbal must be skipped (not
	// materialized).
	codec := NewTupleCodec(CustomerClass, []string{"custkey"})
	var buf bytes.Buffer
	enc := codec.NewEncoder(snd, &buf)
	if err := enc.Write(rh.Addr()); err != nil {
		t.Fatal(err)
	}
	enc.Flush()
	got, err := codec.NewDecoder(rcv, &buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	rck := rcv.MustLoad(CustomerClass)
	if rcv.GetInt(got, rck.FieldByName("custkey")) != 9 {
		t.Error("needed field missing")
	}
	if rcv.GetRef(got, rck.FieldByName("mktsegment")) != heap.Null {
		t.Error("lazy field was materialized")
	}
	if rcv.GetDouble(got, rck.FieldByName("acctbal")) != 0 {
		t.Error("skipped primitive was materialized")
	}
	rh.Release()
}

func TestTupleCodecRejectsWrongClass(t *testing.T) {
	cp := klass.NewPath()
	TPCHClasses(cp)
	reg := registry.NewRegistry()
	snd, _ := vm.NewRuntime(cp, vm.Options{Name: "s", Registry: registry.InProc{R: reg}})
	nk := snd.MustLoad(NationClass)
	row := snd.MustNew(nk)
	codec := NewTupleCodec(CustomerClass, nil)
	enc := codec.NewEncoder(snd, io.Discard)
	if err := enc.Write(row); err == nil {
		t.Error("encoding a wrong-class row succeeded")
	}
}

func loadTestDB(t *testing.T, c *Cluster) *DB {
	t.Helper()
	gen := datagen.GenTPCH(0.4, 11)
	db, err := Load(c, gen)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// skywayNames are the Skyway serializers, one per receive path.
var skywayNames = []string{"skyway", "skyway-arena"}

// TestAllQueriesAgreeAcrossSerializers: every query answers the same under
// the built-in serializers and both Skyway receive paths, and — per
// serializer — the same with identical exchange bytes whether the task
// managers run one at a time or all at once.
func TestAllQueriesAgreeAcrossSerializers(t *testing.T) {
	type result struct {
		digest float64
		bytes  int64
	}
	runAll := func(serializer string, parallel int) map[Query]result {
		c := newTestCluster(t, dataflow.Config{ParallelTasks: parallel}, serializer)
		if c.Parallel() != (parallel > 1) {
			t.Fatalf("%s: ParallelTasks %d gave Parallel() = %v", serializer, parallel, c.Parallel())
		}
		db := loadTestDB(t, c)
		defer db.Free()
		out := make(map[Query]result)
		for _, q := range AllQueries() {
			bd, digest, err := Run(c, q, db)
			if err != nil {
				t.Fatalf("%s/%s (parallel %d): %v", serializer, q, parallel, err)
			}
			if bd.ShuffleBytes == 0 {
				t.Errorf("%s/%s: no exchange volume", serializer, q)
			}
			// Under skyway-arena every received block was staged
			// off-heap; the reduce task that fetched it must have freed it.
			if n := liveArenaRegions(c); n != 0 {
				t.Errorf("%s/%s: %d arena regions live after the query", serializer, q, n)
			}
			out[q] = result{digest, bd.ShuffleBytes}
		}
		return out
	}
	var want map[Query]result
	for _, ser := range append([]string{"flink-builtin"}, skywayNames...) {
		seq := runAll(ser, 1)
		par := runAll(ser, 3) // a slot per task manager
		if want == nil {
			want = seq
		}
		for _, q := range AllQueries() {
			if seq[q].digest != want[q].digest {
				t.Errorf("%s: %s digest %f != %s %f", q, ser, seq[q].digest, Serializers()[0], want[q].digest)
			}
			if par[q] != seq[q] {
				t.Errorf("%s/%s: parallel run %+v != sequential %+v", ser, q, par[q], seq[q])
			}
		}
	}
}

// TestConformanceQueryOverTCP: QC's three exchanges through in-process
// transport/tcp block servers must give the digest and exchange bytes of the
// netsim.LocalTransport run — a transport moves bytes, it must not change
// them.
func TestConformanceQueryOverTCP(t *testing.T) {
	run := func(serializer string, cfg dataflow.Config) (float64, int64) {
		c := newTestCluster(t, cfg, serializer)
		db := loadTestDB(t, c)
		defer db.Free()
		bd, digest, err := Run(c, QC, db)
		if err != nil {
			t.Fatal(err)
		}
		return digest, bd.ShuffleBytes
	}
	_, tr := tcptest.Start(t, 3, tcptransport.Serve, tcptransport.New)

	simDigest, simBytes := run("skyway", dataflow.Config{})
	for _, ser := range skywayNames {
		tcpDigest, tcpBytes := run(ser, dataflow.Config{Transport: tr})
		if tcpDigest != simDigest || tcpBytes != simBytes || simBytes == 0 {
			t.Fatalf("QC under %s over tcp = (%v, %d B), over netsim = (%v, %d B)", ser, tcpDigest, tcpBytes, simDigest, simBytes)
		}
	}
}

// TestNewClusterResolvesSkywayNames: a Flink cluster takes the Skyway
// serializer names serial.ByName resolves — "skyway-arena" boots the arena
// receive path, whose answers TestAllQueriesAgreeAcrossSerializers checks —
// and refuses every other codec.
func TestNewClusterResolvesSkywayNames(t *testing.T) {
	c := newTestCluster(t, dataflow.Config{}, "skyway-arena")
	if sky, ok := c.Codec.(*serial.SkywayCodec); !ok || !sky.Arena {
		t.Fatalf("skyway-arena cluster exchanges with %T %+v, want the arena Skyway codec", c.Codec, c.Codec)
	}
	for _, name := range []string{"java", "kryo", "skyway-lazy"} {
		if _, err := NewCluster(dataflow.Config{Workers: 1}, name); err == nil {
			t.Errorf("NewCluster accepted serializer %q", name)
		}
	}
}

func TestQueryDescriptions(t *testing.T) {
	for _, q := range AllQueries() {
		if Describe(q) == "unknown query" {
			t.Errorf("no description for %s", q)
		}
	}
	if Describe(Query("QZ")) != "unknown query" {
		t.Error("bogus query described")
	}
}

func TestBuiltinSmallerButSlowerThanSkywayOnDeser(t *testing.T) {
	// Table 4's shape: Skyway emits more bytes (1.23~2.03×) but cuts
	// deserialization (geomean 0.75). Byte counts are deterministic and
	// asserted strictly on a single run; wall-clock deserialization is
	// noisy on shared hardware, so the timing claim takes the median
	// sky/builtin ratio over interleaved trials with headroom, and is
	// skipped under -short. Both Skyway receive paths are held to it.
	run := func(serializer string) (deserPerRec float64, bytes int64) {
		c := newTestCluster(t, dataflow.Config{}, serializer)
		db := loadTestDB(t, c)
		defer db.Free()
		var totalDeser float64
		var totalRecs, totalBytes int64
		for _, q := range AllQueries() {
			bd, _, err := Run(c, q, db)
			if err != nil {
				t.Fatal(err)
			}
			totalDeser += float64(bd.Deser)
			totalRecs += bd.Records
			totalBytes += bd.ShuffleBytes
		}
		return totalDeser / float64(totalRecs), totalBytes
	}
	builtinDeser, builtinBytes := run("flink-builtin")
	skyDeser := make(map[string]float64)
	for _, sky := range skywayNames {
		d, n := run(sky)
		if n <= builtinBytes {
			t.Errorf("%s bytes (%d) not larger than builtin (%d)", sky, n, builtinBytes)
		}
		skyDeser[sky] = d
	}
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	if verify.Enabled() {
		t.Skip("timing comparison skipped under SKYWAY_VERIFY")
	}
	if race.Enabled {
		t.Skip("timing comparison skipped under the race detector")
	}
	const trials = 5
	for sky, d := range skyDeser {
		ratios := []float64{d / builtinDeser}
		for len(ratios) < trials {
			b, _ := run("flink-builtin")
			s, _ := run(sky)
			ratios = append(ratios, s/b)
		}
		sort.Float64s(ratios)
		median := ratios[len(ratios)/2]
		// Headroom over the paper's ~0.75× effect: a median at or above
		// 1.10× means Skyway deserialization genuinely regressed, not that
		// the scheduler hiccuped on one trial.
		if median >= 1.10 {
			t.Errorf("median %s/builtin per-record deser ratio %.3f over %d trials not below 1.10 (ratios %v)",
				sky, median, trials, ratios)
		}
	}
}
