package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"skyway"
	"skyway/internal/datagen"
	"skyway/internal/gc"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/registry"
	"skyway/internal/vm"
)

// Record classes of the xfer-records corpus: a ref-free two-field message
// (PageRank's 40-byte RankMsg shape) and a (String, count) pair.
const (
	msgClass  = "bench.Msg"
	pairClass = "bench.Pair"
	longArray = "long[]"
)

// arraySampleStride is the element stride the xfer-arrays receiver sums at:
// enough reads to prove every array arrived, few enough that the per-object
// path stays idle.
const arraySampleStride = 4096

// xfer is the xfer-records / xfer-arrays workload: one long Skyway stream
// per iteration from a sender runtime to a receiver runtime over one
// loopback TCP connection, through the public skyway.DialWriter /
// skyway.AcceptReader. The sender runs on its own goroutine and the receiver
// on the caller's, so two goroutines are busy and the two sides overlap.
type xfer struct {
	observed
	arrays bool

	snd, rcv *vm.Runtime
	svc      *skyway.Service
	ln       *net.TCPListener
	roots    []*gc.Handle
	// fold reduces one received root to the value the checksum sums.
	fold func(root heap.Addr) int64
	// want is the checksum computed on the sender heap at build time.
	want int64
	// wire is the exact socket size of one stream, counted on a warm-up
	// stream; segmentation is a function of the corpus alone, so every
	// measured stream is the same size.
	wire int64
	got  []heap.Addr
}

func benchClasses(cp *klass.Path) {
	vm.EnsureBuiltins(cp)
	cp.MustDefine(
		&klass.ClassDef{Name: msgClass, Fields: []klass.FieldDef{
			{Name: "dst", Kind: klass.Int64},
			{Name: "value", Kind: klass.Float64},
		}},
		&klass.ClassDef{Name: pairClass, Fields: []klass.FieldDef{
			{Name: "word", Kind: klass.Ref, Class: vm.StringClass},
			{Name: "count", Kind: klass.Int64},
		}},
	)
}

// pipeRuntimes boots a sender sized to hold payload bytes of corpus in eden
// and a receiver sized to hold it twice over in input-buffer space: freed
// chunks return to a first-fit list, and streams of different segmentation
// (standard, then compact) fragment it.
func pipeRuntimes(payload uint64, reg *registryStats) (snd, rcv *vm.Runtime, err error) {
	cp := klass.NewPath()
	benchClasses(cp)
	r := registry.NewRegistry()
	slack := payload/4 + 1<<20
	layout := klass.Layout{Baddr: true}
	snd, err = vm.NewRuntime(cp, vm.Options{Name: "sender", Registry: reg.client(r), Heap: heap.Config{
		EdenSize: payload + slack, SurvivorSize: 4 << 20, OldSize: payload + slack, BufferSize: 4 << 20, Layout: layout,
	}})
	if err != nil {
		return nil, nil, err
	}
	rcv, err = vm.NewRuntime(cp, vm.Options{Name: "receiver", Registry: reg.client(r), Heap: heap.Config{
		EdenSize: 8 << 20, SurvivorSize: 1 << 20, OldSize: 8 << 20, BufferSize: 2*payload + 8<<20, Layout: layout,
	}})
	return snd, rcv, err
}

// buildRecords allocates n root graphs on rt: two thirds ref-free Msg
// records, one third (String, count) pairs drawing their word from a pool of
// shared strings, so back-references occur within a stream. Only the field
// values depend on the seed; the shape — and so the wire size — does not.
func buildRecords(rt *vm.Runtime, n, shared int, seed uint64) ([]*gc.Handle, error) {
	rng := datagen.NewRNG(seed)
	mk, pk := rt.MustLoad(msgClass), rt.MustLoad(pairClass)
	words := make([]*gc.Handle, shared)
	for i := range words {
		s, err := rt.NewString(fmt.Sprintf("w%06d-%08x", i, uint32(rng.Next())))
		if err != nil {
			return nil, err
		}
		words[i] = rt.Pin(s)
	}
	roots := make([]*gc.Handle, 0, n)
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			o, err := rt.New(pk)
			if err != nil {
				return nil, err
			}
			rt.SetRef(o, pk.FieldByName("word"), words[rng.Intn(shared)].Addr())
			rt.SetLong(o, pk.FieldByName("count"), int64(rng.Intn(1000)))
			roots = append(roots, rt.Pin(o))
			continue
		}
		o, err := rt.New(mk)
		if err != nil {
			return nil, err
		}
		rt.SetLong(o, mk.FieldByName("dst"), rng.Int63()%1_000_000)
		rt.SetDouble(o, mk.FieldByName("value"), rng.Float64())
		roots = append(roots, rt.Pin(o))
	}
	// The pairs keep the words reachable.
	for _, w := range words {
		w.Release()
	}
	return roots, nil
}

// recordFolder returns rt's fold for record roots: one field per root —
// Msg.dst or Pair.count — plus the word's length, so a pair's reference is
// followed too. Klasses and fields are resolved once, outside the loop.
func recordFolder(rt *vm.Runtime) func(heap.Addr) int64 {
	mk, pk := rt.MustLoad(msgClass), rt.MustLoad(pairClass)
	dst, word, count := mk.FieldByName("dst"), pk.FieldByName("word"), pk.FieldByName("count")
	value := rt.MustLoad(vm.StringClass).FieldByName("value")
	return func(root heap.Addr) int64 {
		if rt.KlassOf(root) == mk {
			return rt.GetLong(root, dst)
		}
		chars := rt.GetRef(rt.GetRef(root, word), value)
		return rt.GetLong(root, count) + int64(rt.ArrayLen(chars))
	}
}

// buildArrays allocates n long[] of length elems on rt, seeded at every
// 512th element (the receiver samples a subset of those).
func buildArrays(rt *vm.Runtime, n, elems int, seed uint64) ([]*gc.Handle, error) {
	rng := datagen.NewRNG(seed)
	k := rt.MustLoad(longArray)
	roots := make([]*gc.Handle, 0, n)
	for i := 0; i < n; i++ {
		a, err := rt.NewArray(k, elems)
		if err != nil {
			return nil, err
		}
		for j := 0; j < elems; j += 512 {
			rt.ArraySetLong(a, j, rng.Int63())
		}
		roots = append(roots, rt.Pin(a))
	}
	return roots, nil
}

// arrayFolder returns rt's fold for array roots: a strided sample's sum.
func arrayFolder(rt *vm.Runtime) func(heap.Addr) int64 {
	return func(root heap.Addr) int64 {
		var sum int64
		for j, n := 0, rt.ArrayLen(root); j < n; j += arraySampleStride {
			sum += rt.ArrayGetLong(root, j)
		}
		return sum
	}
}

func (x *xfer) nominalRate() float64 {
	if x.arrays {
		return 11
	}
	return 16
}

func (x *xfer) setup(seed uint64, sz sizes) error {
	var payload uint64
	if x.arrays {
		payload = uint64(sz.arrays) * uint64(sz.arrayLen*8+64)
	} else {
		payload = uint64(sz.records)*48 + uint64(sz.sharedStrings)*128
	}
	var err error
	if x.snd, x.rcv, err = pipeRuntimes(payload, &x.reg); err != nil {
		return err
	}
	x.runtimes = []*vm.Runtime{x.snd, x.rcv}
	x.receivers = []*vm.Runtime{x.rcv}
	x.svc = skyway.NewService(x.snd)
	x.services = append(x.services, x.svc)

	folder := recordFolder
	if x.arrays {
		x.roots, err = buildArrays(x.snd, sz.arrays, sz.arrayLen, seed)
		folder = arrayFolder
	} else {
		x.roots, err = buildRecords(x.snd, sz.records, sz.sharedStrings, seed)
	}
	if err != nil {
		return err
	}
	onSender := folder(x.snd)
	for _, h := range x.roots {
		x.want += onSender(h.Addr())
	}
	x.fold = folder(x.rcv)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	x.ln = ln.(*net.TCPListener)

	for i := 0; i < sz.warmup; i++ {
		if err := x.run(spanRef{}, i == 0); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (x *xfer) iterate(tr *tracer, iter int) (iterResult, error) {
	root := tr.root("iter", iter)
	err := x.run(root, false)
	root.end()
	if err != nil {
		return iterResult{}, err
	}
	return iterResult{records: int64(len(x.roots)), wireBytes: x.wire}, nil
}

type sendResult struct {
	objects, bytes uint64
	err            error
}

// send is the sender goroutine: one stream of every root.
func (x *xfer) send(root spanRef) sendResult {
	w, err := skyway.DialWriter(x.svc, x.ln.Addr().String())
	if err != nil {
		return sendResult{err: err}
	}
	enc := root.child("encode", tidSender)
	for _, h := range x.roots {
		if err := w.WriteObject(h.Addr()); err != nil {
			enc.end()
			w.Close()
			return sendResult{err: err}
		}
	}
	enc.end()
	cl := root.child("close", tidSender)
	err = w.Close()
	cl.end()
	return sendResult{objects: w.Objects, bytes: w.Bytes, err: err}
}

// run is one stream, sent, received, checked and freed. countWire reads the
// connection through a countingReader to learn the stream's wire size (a
// warm-up stream only — the measured path reads the bare connection).
func (x *xfer) run(root spanRef, countWire bool) error {
	x.svc.ShuffleStart()
	// A sender that fails to connect must not leave Accept blocked.
	if err := x.ln.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		return err
	}
	sent := make(chan sendResult, 1)
	go func() { sent <- x.send(root) }()

	var r *skyway.Reader
	var conn net.Conn
	var counted *countingReader
	var err error
	if countWire {
		if conn, err = x.ln.Accept(); err == nil {
			counted = &countingReader{r: conn}
			r = skyway.NewReader(x.rcv, counted)
		}
	} else {
		r, conn, err = skyway.AcceptReader(x.rcv, x.ln)
	}
	if err != nil {
		return errors.Join(err, (<-sent).err)
	}

	dec := root.child("decode", tidReceiver)
	x.got, err = readRoots(r, x.got)
	dec.end()
	// Closing first unblocks a sender still writing into a stream the
	// receiver has given up on.
	conn.Close()
	s := <-sent

	var sum int64
	if err == nil {
		con := root.child("consume", tidReceiver)
		for _, a := range x.got {
			sum += x.fold(a)
		}
		con.end()
	}
	objects, bytes := r.Objects, r.Bytes
	fr := root.child("free", tidReceiver)
	r.Free()
	fr.end()

	if err = errors.Join(err, s.err); err != nil {
		return err
	}
	if counted != nil {
		x.wire = counted.bytes
	}
	switch {
	case len(x.got) != len(x.roots):
		return fmt.Errorf("received %d roots, sent %d", len(x.got), len(x.roots))
	case objects != s.objects || bytes != s.bytes:
		return fmt.Errorf("received %d objects / %d bytes, sent %d / %d", objects, bytes, s.objects, s.bytes)
	case sum != x.want:
		return fmt.Errorf("checksum %d, want %d", sum, x.want)
	}
	return nil
}

func (x *xfer) close() error {
	for _, h := range x.roots {
		h.Release()
	}
	return x.ln.Close()
}
