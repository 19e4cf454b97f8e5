package main

import (
	"skyway/internal/core"
	"skyway/internal/gc"
	"skyway/internal/obs"
	"skyway/internal/vm"
)

// Readers are not bound to a transfer service, so what they received is read
// from the program's always-live process-wide counters (span tracing in
// internal/obs stays off; NewCounter returns the counter core registered).
var (
	ctrObjectsRecv = obs.NewCounter("skyway_transfer_objects_received_total", "")
	ctrBytesRecv   = obs.NewCounter("skyway_transfer_bytes_received_total", "")
)

// observed collects the per-layer observations every workload can make from
// outside through public getters: transfer-service counters, collector
// statistics, heap and arena gauges, and the decorated registry clients.
// Workloads embed it and add what only they see (dataflow.*, transport.*).
type observed struct {
	// runtimes is every runtime of the workload (collector statistics);
	// receivers is the subset that hosts received data (heap gauges).
	runtimes  []*vm.Runtime
	receivers []*vm.Runtime
	services  []*core.Skyway
	reg       registryStats

	arenaPeakBytes, arenaPeakRegions uint64

	baseGC   gc.Stats
	baseCore core.Stats
	baseRecv [2]int64
}

func (o *observed) gcStats() gc.Stats {
	var s gc.Stats
	for _, rt := range o.runtimes {
		s.Merge(rt.GC.Stats())
	}
	return s
}

func (o *observed) coreStats() core.Stats {
	var s core.Stats
	for _, svc := range o.services {
		t := svc.Snapshot()
		s.ObjectsSent += t.ObjectsSent
		s.BytesSent += t.BytesSent
		s.HeaderBytes += t.HeaderBytes
		s.PaddingBytes += t.PaddingBytes
		s.PointerBytes += t.PointerBytes
		s.OverflowHits += t.OverflowHits
	}
	return s
}

// receiverBytes is one receiver's footprint: young and old space in use now,
// plus the input buffers' high-water mark — Free hands buffer space back, so
// between iterations only the high-water mark still shows what a stream took.
func receiverBytes(rt *vm.Runtime) uint64 {
	h := rt.Heap
	return h.UsedBytes() - h.Buffers.Used() + h.BufferHighWater()
}

// largestReceiver is the largest receiver footprint.
func (o *observed) largestReceiver() uint64 {
	var peak uint64
	for _, rt := range o.receivers {
		peak = max(peak, receiverBytes(rt))
	}
	return peak
}

// heapBytes is the largest receiver footprint plus the arena's peak.
func (o *observed) heapBytes() uint64 { return o.largestReceiver() + o.arenaPeakBytes }

// sampleArena folds the receivers' live off-heap bytes and regions into the
// peaks.
func (o *observed) sampleArena() {
	b, r := o.arenaNow()
	o.arenaPeakBytes = max(o.arenaPeakBytes, b)
	o.arenaPeakRegions = max(o.arenaPeakRegions, uint64(r))
}

// arenaNow returns the receivers' live off-heap bytes and regions.
func (o *observed) arenaNow() (bytes uint64, regions int) {
	for _, rt := range o.receivers {
		bytes += rt.Arena.Bytes()
		regions += rt.Arena.Regions()
	}
	return bytes, regions
}

func (o *observed) resetLayers() {
	o.baseGC = o.gcStats()
	o.baseCore = o.coreStats()
	o.baseRecv = [2]int64{ctrObjectsRecv.Value(), ctrBytesRecv.Value()}
}

// layers reports the shared observations since resetLayers, per iteration.
// Gauges (peaks, leaked regions) and the registry totals, which accrue at
// class-load time during set-up rather than per iteration, are reported as
// they stand.
func (o *observed) layers(m map[string]float64, iters int) {
	n := float64(iters)
	c, bc := o.coreStats(), o.baseCore
	m["core.objects_sent"] = float64(c.ObjectsSent-bc.ObjectsSent) / n
	m["core.bytes_sent"] = float64(c.BytesSent-bc.BytesSent) / n
	m["core.header_bytes"] = float64(c.HeaderBytes-bc.HeaderBytes) / n
	m["core.padding_bytes"] = float64(c.PaddingBytes-bc.PaddingBytes) / n
	m["core.pointer_bytes"] = float64(c.PointerBytes-bc.PointerBytes) / n
	m["core.overflow_hits"] = float64(c.OverflowHits-bc.OverflowHits) / n
	m["core.objects_received"] = float64(ctrObjectsRecv.Value()-o.baseRecv[0]) / n
	m["core.bytes_received"] = float64(ctrBytesRecv.Value()-o.baseRecv[1]) / n

	g, bg := o.gcStats(), o.baseGC
	m["gc.pauses"] = float64(g.Pauses-bg.Pauses) / n
	m["gc.scavenges"] = float64(g.Scavenges-bg.Scavenges) / n
	m["gc.full_gcs"] = float64(g.FullGCs-bg.FullGCs) / n
	m["gc.promotion_full_gcs"] = float64(g.PromotionFullGCs-bg.PromotionFullGCs) / n
	m["gc.pause_s"] = (g.TotalPause() - bg.TotalPause()).Seconds() / n
	m["gc.max_pause_s"] = g.MaxPause.Seconds()
	m["gc.promoted_bytes"] = float64(g.PromotedB-bg.PromotedB) / n
	m["gc.cards_scanned"] = float64(g.CardsScanned-bg.CardsScanned) / n

	var buf uint64
	for _, rt := range o.receivers {
		buf = max(buf, rt.Heap.BufferHighWater())
	}
	m["vm.peak_heap_bytes"] = float64(o.largestReceiver())
	m["vm.buffer_peak_bytes"] = float64(buf)

	_, leaked := o.arenaNow()
	m["arena.regions"] = float64(o.arenaPeakRegions)
	m["arena.peak_bytes"] = float64(o.arenaPeakBytes)
	m["arena.leaked_regions"] = float64(leaked)

	m["registry.lookups"] = float64(o.reg.lookups.Load())
	m["registry.reverses"] = float64(o.reg.reverses.Load())
	m["registry.views"] = float64(o.reg.views.Load())
	m["registry.time_s"] = float64(o.reg.nanos.Load()) / 1e9
}
