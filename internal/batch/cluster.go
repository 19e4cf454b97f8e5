// Package batch is a miniature Flink batch engine (§5.3), reduced to what is
// Flink's own: the plan layer — typed tuple datasets partitioned across the
// task managers and the five queries' operator graphs — and Flink's signature
// serialization design, a statically chosen, schema-specialized serializer
// per exchanged tuple type with lazy deserialization that materializes only
// the fields downstream operators touch (tuplecodec.go). The deployment
// itself — runtimes, registry, scheduler, transport, degradation ladder,
// arena epochs, accounting — is a dataflow.Cluster: a hash exchange is one
// dataflow shuffle, and Skyway plugs into it exactly as it does for Spark,
// through the cluster codec and the shuffleStart mark.
package batch

import (
	"fmt"

	"skyway/internal/dataflow"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/metrics"
	"skyway/internal/serial"
)

// Serializers lists the Figure 8(b) serializers in report order.
func Serializers() []string { return []string{"flink-builtin", "skyway"} }

// Cluster is one simulated Flink deployment: a dataflow cluster whose
// exchanges pick their serializer per tuple type.
type Cluster struct {
	*dataflow.Cluster
	// builtin selects Flink's built-in tuple serializers, a new cluster
	// codec per exchange; otherwise the Skyway codec set at boot serves
	// every exchange.
	builtin bool
}

// Executor is one task-manager runtime.
type Executor = dataflow.Executor

// DefaultHeap sizes task-manager heaps for the bundled queries.
func DefaultHeap() heap.Config {
	return heap.Config{
		EdenSize:     48 << 20,
		SurvivorSize: 4 << 20,
		OldSize:      128 << 20,
		BufferSize:   192 << 20,
		Layout:       klass.Layout{Baddr: true},
	}
}

// NewCluster boots the task managers as a dataflow cluster over a fresh TPC-H
// classpath, one exchange partition per task manager, exchanging rows with
// the named serializer. A zero cfg.Heap uses DefaultHeap.
func NewCluster(cfg dataflow.Config, serializer string) (*Cluster, error) {
	cp := klass.NewPath()
	TPCHClasses(cp)
	if cfg.Heap.EdenSize == 0 {
		cfg.Heap = DefaultHeap()
	}
	cfg.PartitionsPerWorker = 1
	var codec serial.Codec // nil: a tuple codec per exchange
	switch serializer {
	case "flink-builtin":
	case "skyway":
		codec = serial.NewSkywayCodec()
	default:
		return nil, fmt.Errorf("batch: unknown serializer %q", serializer)
	}
	df, err := dataflow.NewCluster(cp, cfg, codec)
	if err != nil {
		return nil, err
	}
	return &Cluster{Cluster: df, builtin: codec == nil}, nil
}

// Emit routes one row to a destination task manager.
type Emit func(dst int, row heap.Addr)

// Exchange runs one hash exchange of rows of the given class as a dataflow
// shuffle: produce emits rows on every task manager, consume receives them
// in (sender, emit) order. needed lists the fields downstream operators will
// read (the built-in serializers' lazy deserialization hint; Skyway ignores
// it). Both closures run under dataflow.ShuffleSpec's concurrency contract:
// several task managers at once, so they touch only ex-local state.
func (c *Cluster) Exchange(class string, needed []string,
	produce func(ex *Executor, emit Emit) error,
	consume func(ex *Executor, rows []heap.Addr) error) (metrics.Breakdown, error) {

	if c.builtin {
		c.Codec = NewTupleCodec(class, needed)
	}
	return c.RunShuffle(dataflow.ShuffleSpec{
		Produce: func(ex *Executor, emit dataflow.Emit) error {
			// A constant sort key keeps the stable sort-based shuffle in
			// emit order: Flink's hash exchange does not sort.
			return produce(ex, func(dst int, row heap.Addr) { emit(dst, 0, row) })
		},
		Consume: consume,
	})
}
