package main

// metricDef names one reported metric. BENCHMARK.json carries the same
// tables; bench_test.go checks the two agree.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" | "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before it is a regression (0 for per-layer
	// metrics, which have none).
	bound float64
	// exact marks a per-layer count that must repeat exactly between two
	// runs of the same code with the same seed.
	exact bool
}

// End-to-end metrics, reported for every workload with tracing off.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "records_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wire_bytes_per_record", unit: "B", better: "lower", bound: 0.005},
	{name: "peak_heap_mb", unit: "MB", better: "lower", bound: 0.05},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// Per-layer metrics, reported by the traced run. Module names are the
// layers. Everything observed on the workload's own iterations is a
// per-iteration mean over the traced phase unless it is a gauge; everything
// from a probe is the median over the probe's passes.
var perLayer = []metricDef{
	// Host ceilings (probes).
	{name: "host.memcpy_gbps", unit: "GB/s", better: "higher"},
	{name: "host.crc32c_gbps", unit: "GB/s", better: "higher"},
	{name: "host.loopback_gbps", unit: "GB/s", better: "higher"},

	// core writer: probes, then the workload's Service.Snapshot() deltas.
	{name: "core.encode_ns_per_obj", unit: "ns", better: "lower"},
	{name: "core.encode_gbps", unit: "GB/s", better: "higher"},
	{name: "core.stream_open_close_ns", unit: "ns", better: "lower"},
	{name: "core.writes_per_stream", unit: "count", better: "lower", exact: true},
	{name: "core.bytes_per_write", unit: "B", better: "higher", exact: true},
	{name: "core.objects_sent", unit: "count", better: "lower", exact: true},
	{name: "core.bytes_sent", unit: "B", better: "lower", exact: true},
	{name: "core.header_bytes", unit: "B", better: "lower", exact: true},
	{name: "core.padding_bytes", unit: "B", better: "lower", exact: true},
	{name: "core.pointer_bytes", unit: "B", better: "lower", exact: true},
	{name: "core.overflow_hits", unit: "count", better: "lower", exact: true},

	// core reader.
	{name: "core.decode_ns_per_obj", unit: "ns", better: "lower"},
	{name: "core.decode_gbps", unit: "GB/s", better: "higher"},
	{name: "core.free_ns", unit: "ns", better: "lower"},
	{name: "core.objects_received", unit: "count", better: "lower", exact: true},
	{name: "core.bytes_received", unit: "B", better: "lower", exact: true},

	// core compact wire (records probe corpus).
	{name: "core.compact_wire_ratio", unit: "ratio", better: "lower", exact: true},
	{name: "core.compact_encode_ns_per_obj", unit: "ns", better: "lower"},
	{name: "core.compact_decode_ns_per_obj", unit: "ns", better: "lower"},

	// vm.
	{name: "vm.read_ns_per_field", unit: "ns", better: "lower"},
	{name: "vm.alloc_ns_per_obj", unit: "ns", better: "lower"},
	{name: "vm.peak_heap_bytes", unit: "B", better: "lower"},
	{name: "vm.buffer_peak_bytes", unit: "B", better: "lower"},

	// arena: probes, then the workload's receivers.
	{name: "arena.decode_gbps", unit: "GB/s", better: "higher"},
	{name: "arena.read_ns_per_field", unit: "ns", better: "lower"},
	{name: "arena.read_vs_eager", unit: "ratio", better: "lower"},
	{name: "arena.regions", unit: "count", better: "lower", exact: true},
	{name: "arena.peak_bytes", unit: "B", better: "lower", exact: true},
	{name: "arena.leaked_regions", unit: "count", better: "lower", exact: true},

	// gc, from the workload's runtimes.
	{name: "gc.pauses", unit: "count", better: "lower", exact: true},
	{name: "gc.scavenges", unit: "count", better: "lower", exact: true},
	{name: "gc.full_gcs", unit: "count", better: "lower", exact: true},
	{name: "gc.promotion_full_gcs", unit: "count", better: "lower", exact: true},
	{name: "gc.pause_s", unit: "s", better: "lower"},
	{name: "gc.max_pause_s", unit: "s", better: "lower"},
	{name: "gc.promoted_bytes", unit: "B", better: "lower", exact: true},
	{name: "gc.cards_scanned", unit: "count", better: "lower", exact: true},

	// dataflow, from the metrics.Breakdown each job returns (0 off jobs).
	{name: "dataflow.compute_s", unit: "s", better: "lower"},
	{name: "dataflow.ser_s", unit: "s", better: "lower"},
	{name: "dataflow.deser_s", unit: "s", better: "lower"},
	{name: "dataflow.write_io_s", unit: "s", better: "lower"},
	{name: "dataflow.read_io_s", unit: "s", better: "lower"},
	{name: "dataflow.unattributed_s", unit: "s", better: "lower"},
	{name: "dataflow.records", unit: "count", better: "lower", exact: true},
	{name: "dataflow.shuffle_bytes", unit: "B", better: "lower", exact: true},
	{name: "dataflow.local_bytes", unit: "B", better: "lower", exact: true},
	{name: "dataflow.remote_bytes", unit: "B", better: "lower", exact: true},

	// transport: the decorator on the jobs' transport/tcp (0 off jobs),
	// then probes against an in-process tcp.Server.
	{name: "transport.put_s", unit: "s", better: "lower"},
	{name: "transport.fetch_s", unit: "s", better: "lower"},
	{name: "transport.drop_s", unit: "s", better: "lower"},
	{name: "transport.puts", unit: "count", better: "lower", exact: true},
	{name: "transport.fetches", unit: "count", better: "lower", exact: true},
	{name: "transport.put_bytes", unit: "B", better: "lower", exact: true},
	{name: "transport.fetch_bytes", unit: "B", better: "lower", exact: true},
	{name: "transport.block_gbps", unit: "GB/s", better: "higher"},
	{name: "transport.small_block_us", unit: "us", better: "lower"},

	// registry: decorated clients, totals since set-up began.
	{name: "registry.lookups", unit: "count", better: "lower", exact: true},
	{name: "registry.reverses", unit: "count", better: "lower", exact: true},
	{name: "registry.views", unit: "count", better: "lower", exact: true},
	{name: "registry.time_s", unit: "s", better: "lower"},

	// serial reference arm (probe): PageRank jobs under Kryo vs skyway.
	{name: "serial.kryo_wall_s", unit: "s", better: "lower"},
	{name: "serial.kryo_ser_s", unit: "s", better: "lower"},
	{name: "serial.kryo_deser_s", unit: "s", better: "lower"},
	{name: "serial.kryo_wire_bytes", unit: "B", better: "lower", exact: true},
	{name: "serial.skyway_vs_kryo_wall", unit: "ratio", better: "lower"},

	// Traced spans: median self time per iteration by call group.
	{name: "span.iter_s", unit: "s", better: "lower"},
	{name: "span.encode_self_s", unit: "s", better: "lower"},
	{name: "span.close_self_s", unit: "s", better: "lower"},
	{name: "span.decode_self_s", unit: "s", better: "lower"},
	{name: "span.consume_self_s", unit: "s", better: "lower"},
	{name: "span.free_self_s", unit: "s", better: "lower"},
	{name: "span.job_self_s", unit: "s", better: "lower"},

	// The traced phase's iteration samples, the Go runtime under it, and
	// what tracing cost.
	{name: "iter.samples", unit: "count", better: "higher", exact: true},
	{name: "iter.min_s", unit: "s", better: "lower"},
	{name: "iter.iqr_s", unit: "s", better: "lower"},
	{name: "iter.hi_s", unit: "s", better: "lower"},
	{name: "iter.hi_pct", unit: "%", better: "higher"},
	{name: "go.max_rss_mb", unit: "MB", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.alloc_mb_per_iter", unit: "MB", better: "lower"},
	{name: "obs.trace_overhead", unit: "ratio", better: "lower"},
}
