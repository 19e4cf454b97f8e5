// Package netsim models the cluster fabric of the paper's testbed: node
// topology and the bandwidth-bound costs of disk and network I/O. CPU-side
// serialization work is really executed and measured; I/O time is computed
// from byte counts with this model (DESIGN.md, substitutions), preserving
// the paper's crossover analysis — e.g. §1's observation that shipping 50%
// more bytes over 1000 Mb/s Ethernet costs only ~4% while eliminating S/D
// saves >20%.
package netsim

import (
	"time"

	"skyway/internal/fault"
	"skyway/internal/obs"
)

// CostModel holds sustained bandwidths in bytes/second plus fixed per-
// transfer latencies.
type CostModel struct {
	// NetBandwidth models the inter-node link (paper: 1000 Mb/s Ethernet).
	NetBandwidth float64
	// DiskWriteBandwidth and DiskReadBandwidth model the local SSD that
	// shuffle files are spilled to and fetched from.
	DiskWriteBandwidth float64
	DiskReadBandwidth  float64
	// NetLatency is added once per remote fetch.
	NetLatency time.Duration
	// Trace, when set, receives one modelled-I/O span per public cost query.
	// The span's duration is the modelled time, anchored at the query (the
	// fabric charges time without occupying wall-clock).
	Trace *obs.Tracer
}

// emit records one modelled-I/O span; cost math below goes through the
// private helpers so a composite query like FetchTime emits exactly once.
func (m CostModel) emit(name string, bytes int64, d time.Duration) {
	if m.Trace == nil || d <= 0 || !obs.Enabled() {
		return
	}
	m.Trace.Emit("io", name, time.Now(), d, obs.I64("bytes", bytes))
}

// Paper1GbE is the evaluation cluster's fabric: 1000 Mb/s Ethernet and one
// SATA SSD per node (§5). The bandwidths are *effective blocking* rates
// calibrated against the paper's own measured I/O shares rather than raw
// device speeds: Figure 3 reports write I/O at 1.4% and read I/O (network
// included) at 1.1% of a ~1400 s TriangleCounting run that shuffles ~14 GB,
// which is only possible because shuffle writes land in the page cache and
// Spark prefetches remote blocks concurrently with reduce computation. Raw
// device rates would overcharge every serializer's bytes several-fold.
func Paper1GbE() CostModel {
	return CostModel{
		NetBandwidth:       1.0e9, // 1000 Mb/s wire, ~87% hidden by prefetch overlap
		DiskWriteBandwidth: 700e6, // SSD behind the page cache
		DiskReadBandwidth:  1.2e9, // mostly page-cache hits
		NetLatency:         200 * time.Microsecond,
	}
}

// Infiniband models the faster fabric the motivation experiment ran on
// (§2.2), where network cost is negligible next to S/D.
func Infiniband() CostModel {
	return CostModel{
		NetBandwidth:       5e9,
		DiskWriteBandwidth: 700e6,
		DiskReadBandwidth:  1.2e9,
		NetLatency:         50 * time.Microsecond,
	}
}

func cost(bytes int64, bw float64) time.Duration {
	if bw <= 0 || bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / bw * float64(time.Second))
}

func (m CostModel) netTime(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return m.NetLatency + cost(n, m.NetBandwidth)
}

func (m CostModel) readTime(n int64) time.Duration { return cost(n, m.DiskReadBandwidth) }

// NetTime returns the wire time for one remote transfer of n bytes.
func (m CostModel) NetTime(n int64) time.Duration {
	d := m.netTime(n)
	m.emit("net.transfer", n, d)
	return d
}

// WriteTime returns the disk time to spill n bytes of shuffle output.
func (m CostModel) WriteTime(n int64) time.Duration {
	d := cost(n, m.DiskWriteBandwidth)
	m.emit("disk.write", n, d)
	return d
}

// FetchTime returns the read-side cost of a shuffle fetch: local bytes come
// off disk, remote bytes additionally cross the network (the paper folds
// network cost into read I/O, §2.2).
func (m CostModel) FetchTime(localBytes, remoteBytes int64) time.Duration {
	d := m.readTime(localBytes) + m.readTime(remoteBytes) + m.netTime(remoteBytes)
	// Failpoint: congestion on the modelled wire — charge extra fabric time
	// (arg duration, default 1ms) without touching any real clock.
	if fault.Eval(fault.NetsimFetchSlow) {
		d += fault.DurationArg(fault.NetsimFetchSlow, time.Millisecond)
	}
	m.emit("shuffle.fetch", localBytes+remoteBytes, d)
	return d
}
