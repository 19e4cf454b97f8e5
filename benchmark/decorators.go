package main

import (
	"io"
	"sync/atomic"
	"time"

	"skyway/internal/registry"
	"skyway/internal/transport"
)

// Decorators passed through the program's existing seams
// (dataflow.Config.Transport, dataflow.Config.RegistryClient,
// vm.Options.Registry) so a layer is measured from outside. They forward
// every call unchanged and hide no fast path, so they stay in place in both
// the untraced and the traced phase; spans are only recorded when the
// current span is live.

// transportStats is what crossed a meteredTransport.
type transportStats struct {
	puts, fetches, drops         int64
	putBytes, fetchBytes         int64
	putTime, fetchTime, dropTime time.Duration
}

// meteredTransport decorates a transport.Transport. The job workloads run
// their tasks sequentially, so its fields need no synchronization.
type meteredTransport struct {
	transport.Transport
	stats transportStats
	// cur is the running job's span; exchanges become its children.
	cur spanRef
	// onDrop runs before every Drop. A reduce task drops a block right
	// after decoding it, while every region the task staged is still
	// resident — which is where the arena's footprint peaks and where the
	// workload samples it.
	onDrop func()
}

func (m *meteredTransport) NewShuffle(seq int) (transport.Shuffle, error) {
	sh, err := m.Transport.NewShuffle(seq)
	if err != nil {
		return nil, err
	}
	return &meteredShuffle{Shuffle: sh, m: m}, nil
}

type meteredShuffle struct {
	transport.Shuffle
	m *meteredTransport
}

func (s *meteredShuffle) Put(src, dst int, block []byte) (time.Duration, error) {
	d, err := s.Shuffle.Put(src, dst, block)
	st := &s.m.stats
	st.puts++
	st.putBytes += int64(len(block))
	st.putTime += d
	s.m.cur.add("transport.put", tidMain, time.Now().Add(-d), d).arg("bytes", int64(len(block)))
	return d, err
}

func (s *meteredShuffle) Fetch(src, dst int) ([]byte, time.Duration, error) {
	block, d, err := s.Shuffle.Fetch(src, dst)
	st := &s.m.stats
	st.fetches++
	st.fetchBytes += int64(len(block))
	st.fetchTime += d
	s.m.cur.add("transport.fetch", tidMain, time.Now().Add(-d), d).arg("bytes", int64(len(block)))
	return block, d, err
}

func (s *meteredShuffle) Drop(src, dst int) {
	st := &s.m.stats
	if s.m.onDrop != nil {
		s.m.onDrop()
	}
	start := time.Now()
	s.Shuffle.Drop(src, dst)
	d := time.Since(start)
	st.drops++
	st.dropTime += d
	s.m.cur.add("transport.drop", tidMain, start, d)
}

// registryStats is shared by every meteredRegistry client of one workload.
type registryStats struct {
	lookups, reverses, views atomic.Int64
	nanos                    atomic.Int64
}

// meteredRegistry decorates one runtime's registry.Client.
type meteredRegistry struct {
	registry.Client
	st *registryStats
}

// timed books the time of one client call that began at start.
func (st *registryStats) timed(start time.Time) { st.nanos.Add(int64(time.Since(start))) }

func (r meteredRegistry) RequestView() (map[string]int32, error) {
	defer r.st.timed(time.Now())
	r.st.views.Add(1)
	return r.Client.RequestView()
}

func (r meteredRegistry) Lookup(name string) (int32, error) {
	defer r.st.timed(time.Now())
	r.st.lookups.Add(1)
	return r.Client.Lookup(name)
}

func (r meteredRegistry) Reverse(id int32) (string, error) {
	defer r.st.timed(time.Now())
	r.st.reverses.Add(1)
	return r.Client.Reverse(id)
}

// client returns a decorated in-process client of reg.
func (st *registryStats) client(reg *registry.Registry) registry.Client {
	return meteredRegistry{Client: registry.InProc{R: reg}, st: st}
}

// countingWriter is a sink that counts Write calls and bytes. Wrapping a
// net.Conn in it would hide the connection from net.Buffers' writev fast
// path, so it only ever backs probes and warm-up streams, never a measured
// iteration.
type countingWriter struct {
	w      io.Writer
	writes int64
	bytes  int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.writes++
	c.bytes += int64(n)
	return n, err
}

// countingReader counts the bytes read from a connection: the exact wire
// size of a stream, taken once per set-up on a warm-up stream.
type countingReader struct {
	r     io.Reader
	bytes int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.bytes += int64(n)
	return n, err
}
