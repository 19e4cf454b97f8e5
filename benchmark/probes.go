package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"time"

	"skyway/internal/core"
	"skyway/internal/gc"
	"skyway/internal/heap"
	"skyway/internal/transport/tcp"
	"skyway/internal/vm"
)

// Per-layer probes: each times one layer in isolation on the benchmark's own
// corpora, after the traced iterations, so no probe shares the clock with a
// measured iteration. Every figure is the median over sz.probePasses passes.

// overPasses runs pass n times and returns the median of what it reports.
func overPasses(n int, pass func() (float64, error)) (float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		x, err := pass()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

func gbps(bytes int, d time.Duration) float64 { return float64(bytes) / d.Seconds() / 1e9 }

func runProbes(seed uint64, sz sizes, m map[string]float64) error {
	for _, probe := range []func(uint64, sizes, map[string]float64) error{
		probeHost, probeRecords, probeArrays, probeTransport, probeSerial,
	} {
		if err := probe(seed, sz, m); err != nil {
			return err
		}
	}
	return nil
}

// probeHost measures the ceilings every GB/s figure is read against.
func probeHost(_ uint64, sz sizes, m map[string]float64) error {
	n := sz.probeHostBytes
	src, dst := make([]byte, n), make([]byte, n)
	for i := range src {
		src[i] = byte(i)
	}
	var err error
	if m["host.memcpy_gbps"], err = overPasses(sz.probePasses, func() (float64, error) {
		start := time.Now()
		copy(dst, src)
		return gbps(n, time.Since(start)), nil
	}); err != nil {
		return err
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	var sink uint32
	if m["host.crc32c_gbps"], err = overPasses(sz.probePasses, func() (float64, error) {
		start := time.Now()
		sink += crc32.Checksum(src, castagnoli)
		return gbps(n, time.Since(start)), nil
	}); err != nil {
		return err
	}
	_ = sink
	m["host.loopback_gbps"], err = overPasses(sz.probePasses, func() (float64, error) { return loopbackPass(src, 2*n) })
	return err
}

// loopbackPass pushes total bytes through one raw loopback net.Conn in
// 64 KiB writes while the peer drains it.
func loopbackPass(src []byte, total int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	drained := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			drained <- err
			return
		}
		defer c.Close()
		_, err = io.Copy(io.Discard, c)
		drained <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close() // unblocks Accept
		return 0, errors.Join(err, <-drained)
	}
	const chunk = 64 << 10
	start := time.Now()
	for sent := 0; sent < total && err == nil; sent += chunk {
		off := sent % (len(src) - chunk)
		_, err = c.Write(src[off : off+chunk])
	}
	c.Close()
	err = errors.Join(err, <-drained)
	return gbps(total, time.Since(start)), err
}

// encodeStream writes roots as one stream into w. The caller starts the
// shuffle phase: roots already sent in the current phase go out as
// back-references.
func encodeStream(svc *core.Skyway, roots []*gc.Handle, w io.Writer, opts ...core.WriterOption) (*core.Writer, error) {
	wr := svc.NewWriter(w, opts...)
	for _, h := range roots {
		if err := wr.WriteObject(h.Addr()); err != nil {
			return wr, err
		}
	}
	return wr, wr.Close()
}

// readRoots reads every remaining root of r's stream into roots[:0].
func readRoots(r *core.Reader, roots []heap.Addr) ([]heap.Addr, error) {
	roots = roots[:0]
	for {
		a, err := r.ReadObject()
		if err == io.EOF {
			return roots, nil
		}
		if err != nil {
			return roots, err
		}
		roots = append(roots, a)
	}
}

// decodeStream reads every root of wire into rt; the caller frees the reader.
func decodeStream(rt *vm.Runtime, wire []byte, roots []heap.Addr, opts ...core.ReaderOption) (*core.Reader, []heap.Addr, error) {
	r := core.NewReader(rt, bytes.NewReader(wire), opts...)
	roots, err := readRoots(r, roots)
	if err != nil {
		r.Free()
		return nil, nil, err
	}
	return r, roots, nil
}

// codecPasses times encode and decode of one corpus: ns per object and GB/s
// of wire for each direction, plus the time Reader.Free takes.
type codecTimes struct {
	encNsPerObj, encGbps float64
	decNsPerObj, decGbps float64
	freeNs               float64
	wire                 []byte
}

func codecPasses(svc *core.Skyway, rcv *vm.Runtime, roots []*gc.Handle, passes int, opts ...core.WriterOption) (codecTimes, error) {
	var t codecTimes
	var buf bytes.Buffer
	var encNs, encG, decNs, decG, freeNs []float64
	var got []heap.Addr
	for i := 0; i < passes; i++ {
		buf.Reset()
		svc.ShuffleStart()
		start := time.Now()
		w, err := encodeStream(svc, roots, &buf, opts...)
		d := time.Since(start)
		if err != nil {
			return t, err
		}
		encNs = append(encNs, float64(d)/float64(w.Objects))
		encG = append(encG, gbps(buf.Len(), d))

		start = time.Now()
		r, decoded, err := decodeStream(rcv, buf.Bytes(), got)
		d = time.Since(start)
		if err != nil {
			return t, err
		}
		got = decoded
		decNs = append(decNs, float64(d)/float64(r.Objects))
		decG = append(decG, gbps(buf.Len(), d))
		start = time.Now()
		r.Free()
		freeNs = append(freeNs, float64(time.Since(start)))
	}
	t = codecTimes{median(encNs), median(encG), median(decNs), median(decG), median(freeNs), append([]byte(nil), buf.Bytes()...)}
	return t, nil
}

// probeRecords covers the per-object path: standard and compact wire on the
// records corpus, write granularity, per-stream fixed cost, allocation.
func probeRecords(seed uint64, sz sizes, m map[string]float64) error {
	var reg registryStats
	snd, rcv, err := pipeRuntimes(uint64(sz.probeRecords)*48+uint64(sz.sharedStrings)*128, &reg)
	if err != nil {
		return err
	}
	roots, err := buildRecords(snd, sz.probeRecords, sz.sharedStrings, seed)
	if err != nil {
		return err
	}
	svc := core.New(snd)

	std, err := codecPasses(svc, rcv, roots, sz.probePasses)
	if err != nil {
		return err
	}
	m["core.encode_ns_per_obj"], m["core.decode_ns_per_obj"], m["core.free_ns"] = std.encNsPerObj, std.decNsPerObj, std.freeNs
	compact, err := codecPasses(svc, rcv, roots, sz.probePasses, core.WithCompactHeaders())
	if err != nil {
		return err
	}
	m["core.compact_encode_ns_per_obj"], m["core.compact_decode_ns_per_obj"] = compact.encNsPerObj, compact.decNsPerObj
	m["core.compact_wire_ratio"] = float64(len(compact.wire)) / float64(len(std.wire))

	// Write granularity: what a sink that is not buffered would see.
	sink := &countingWriter{w: io.Discard}
	svc.ShuffleStart()
	if _, err := encodeStream(svc, roots, sink); err != nil {
		return err
	}
	m["core.writes_per_stream"] = float64(sink.writes)
	m["core.bytes_per_write"] = float64(sink.bytes) / float64(sink.writes)

	// Fixed cost of a stream: one tiny object through a fresh Writer and
	// a fresh Reader, a different root per stream within one phase.
	streams := min(1000, len(roots))
	var buf bytes.Buffer
	if m["core.stream_open_close_ns"], err = overPasses(sz.probePasses, func() (float64, error) {
		svc.ShuffleStart()
		start := time.Now()
		for i := 0; i < streams; i++ {
			buf.Reset()
			if _, err := encodeStream(svc, roots[i:i+1], &buf); err != nil {
				return 0, err
			}
			r, _, err := decodeStream(rcv, buf.Bytes(), nil)
			if err != nil {
				return 0, err
			}
			r.Free()
		}
		return float64(time.Since(start)) / float64(streams), nil
	}); err != nil {
		return err
	}

	// PageRank's produce path: New plus two setters, garbage left for the
	// scavenger as a map task's messages are.
	mk := rcv.MustLoad(msgClass)
	dst, value := mk.FieldByName("dst"), mk.FieldByName("value")
	allocs := 2 * sz.probeRecords
	m["vm.alloc_ns_per_obj"], err = overPasses(sz.probePasses, func() (float64, error) {
		start := time.Now()
		for i := 0; i < allocs; i++ {
			o, err := rcv.New(mk)
			if err != nil {
				return 0, err
			}
			rcv.SetLong(o, dst, int64(i))
			rcv.SetDouble(o, value, 0.5)
		}
		return float64(time.Since(start)) / float64(allocs), nil
	})
	return err
}

// probeArrays covers the bulk path — encode/decode GB/s on the arrays
// corpus — and what reading a decoded array costs per element, eagerly and
// through arena handles.
func probeArrays(seed uint64, sz sizes, m map[string]float64) error {
	var reg registryStats
	snd, rcv, err := pipeRuntimes(uint64(sz.probeArrays)*uint64(sz.arrayLen*8+64), &reg)
	if err != nil {
		return err
	}
	roots, err := buildArrays(snd, sz.probeArrays, sz.arrayLen, seed)
	if err != nil {
		return err
	}
	std, err := codecPasses(core.New(snd), rcv, roots, sz.probePasses)
	if err != nil {
		return err
	}
	m["core.encode_gbps"], m["core.decode_gbps"] = std.encGbps, std.decGbps

	var got []heap.Addr
	var sink int64
	sweep := func(opts ...core.ReaderOption) (decodeGbps, nsPerField float64, err error) {
		var dec, read []float64
		for i := 0; i < sz.probePasses; i++ {
			start := time.Now()
			r, decoded, err := decodeStream(rcv, std.wire, got, opts...)
			if err != nil {
				return 0, 0, err
			}
			dec = append(dec, gbps(len(std.wire), time.Since(start)))
			got = decoded
			start = time.Now()
			fields := 0
			for _, a := range got {
				n := rcv.ArrayLen(a)
				for j := 0; j < n; j++ {
					sink += rcv.ArrayGetLong(a, j)
				}
				fields += n
			}
			read = append(read, float64(time.Since(start))/float64(fields))
			r.Free()
		}
		return median(dec), median(read), nil
	}
	if _, m["vm.read_ns_per_field"], err = sweep(); err != nil {
		return err
	}
	if m["arena.decode_gbps"], m["arena.read_ns_per_field"], err = sweep(core.WithArena()); err != nil {
		return err
	}
	_ = sink
	m["arena.read_vs_eager"] = m["arena.read_ns_per_field"] / m["vm.read_ns_per_field"]
	if n := rcv.Arena.Regions(); n != 0 {
		return fmt.Errorf("arena probe left %d regions live", n)
	}
	return nil
}

// probeTransport times the block exchange against one in-process block
// server: a large block for bandwidth, a small one for the fixed cost.
func probeTransport(_ uint64, sz sizes, m map[string]float64) error {
	ex, err := tcp.StartExecutor(0, "", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ex.Close()
	tr := tcp.New(map[int]string{0: ex.Addr()})
	defer tr.Close()
	sh, err := tr.NewShuffle(1)
	if err != nil {
		return err
	}
	exchange := func(block []byte) error {
		if _, err := sh.Put(0, 0, block); err != nil {
			return err
		}
		got, _, err := sh.Fetch(0, 0)
		if err != nil {
			return err
		}
		if len(got) != len(block) {
			return fmt.Errorf("transport probe: fetched %d bytes of %d", len(got), len(block))
		}
		sh.Drop(0, 0)
		return nil
	}
	big := make([]byte, sz.probeBlockBytes)
	if m["transport.block_gbps"], err = overPasses(sz.probePasses, func() (float64, error) {
		start := time.Now()
		err := exchange(big)
		return gbps(2*len(big), time.Since(start)), err
	}); err != nil {
		return err
	}
	small := big[:1<<10]
	const exchanges = 200
	m["transport.small_block_us"], err = overPasses(sz.probePasses, func() (float64, error) {
		start := time.Now()
		for i := 0; i < exchanges; i++ {
			if err := exchange(small); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Microseconds()) / exchanges, nil
	})
	return err
}

// probeSerial is the reference arm: job-pagerank's job under serial.KryoCodec
// against the same job under skyway, on identical clusters — the paper's
// headline comparison kept as a diagnostic, so it cannot be "improved" by
// slowing the baseline.
func probeSerial(seed uint64, sz sizes, m map[string]float64) error {
	g, err := benchGraph(seed, sz)
	if err != nil {
		return err
	}
	j := &job{sz: sz, g: g}
	arm := func(codec string) (wall, ser, deser, wire float64, err error) {
		var reg registryStats
		bc, err := newBenchCluster(sz, codec, &reg)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		defer bc.close()
		var walls []float64
		for i := 0; i <= sz.kryoJobs; i++ { // job 0 warms up
			start := time.Now()
			bd, _, err := j.runJob(bc.c)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			if i > 0 {
				walls = append(walls, time.Since(start).Seconds())
				ser += bd.Ser.Seconds() / float64(sz.kryoJobs)
				deser += bd.Deser.Seconds() / float64(sz.kryoJobs)
				wire = float64(bd.ShuffleBytes)
			}
		}
		return median(walls), ser, deser, wire, nil
	}
	kryo, ser, deser, wire, err := arm("kryo")
	if err != nil {
		return err
	}
	sky, _, _, _, err := arm("skyway")
	if err != nil {
		return err
	}
	m["serial.kryo_wall_s"], m["serial.kryo_ser_s"], m["serial.kryo_deser_s"], m["serial.kryo_wire_bytes"] = kryo, ser, deser, wire
	m["serial.skyway_vs_kryo_wall"] = sky / kryo
	return nil
}
