package dataflow

import (
	"skyway/internal/klass"
	"skyway/internal/serial"
	"skyway/internal/vm"
)

// Record classes shuffled by the Spark workloads. Like the paper's Spark
// setup, shuffled data are ordinary heap objects; only these classes cross
// executor heaps.
const (
	// WordPairClass is WordCount's (word, count) pair.
	WordPairClass = "wc.WordPair"
	// RankMsgClass is PageRank's (dst, contribution) message.
	RankMsgClass = "graph.RankMsg"
	// LabelMsgClass is ConnectedComponents' (dst, label) message.
	LabelMsgClass = "graph.LabelMsg"
	// AdjMsgClass is TriangleCounting's (src, dst, neighbors) message.
	AdjMsgClass = "graph.AdjMsg"
)

// WorkloadClasses defines the record schemas on cp (idempotent).
func WorkloadClasses(cp *klass.Path) {
	vm.EnsureBuiltins(cp)
	if cp.Lookup(WordPairClass) != nil {
		return
	}
	cp.MustDefine(
		&klass.ClassDef{Name: WordPairClass, Fields: []klass.FieldDef{
			{Name: "word", Kind: klass.Ref, Class: vm.StringClass},
			{Name: "count", Kind: klass.Int64},
		}},
		&klass.ClassDef{Name: RankMsgClass, Fields: []klass.FieldDef{
			{Name: "dst", Kind: klass.Int64},
			{Name: "value", Kind: klass.Float64},
		}},
		&klass.ClassDef{Name: LabelMsgClass, Fields: []klass.FieldDef{
			{Name: "dst", Kind: klass.Int64},
			{Name: "label", Kind: klass.Int64},
		}},
		&klass.ClassDef{Name: AdjMsgClass, Fields: []klass.FieldDef{
			{Name: "src", Kind: klass.Int64},
			{Name: "dst", Kind: klass.Int64},
			{Name: "neighbors", Kind: klass.Ref, Class: "long[]"},
		}},
	)
}

// WorkloadRegistration returns the Kryo-style registration list covering
// every class the workloads shuffle — the manual step Skyway eliminates.
func WorkloadRegistration() *serial.Registration {
	return serial.NewRegistration(
		WordPairClass, RankMsgClass, LabelMsgClass, AdjMsgClass,
		vm.StringClass, vm.CharArrayClass, "long[]",
	)
}
