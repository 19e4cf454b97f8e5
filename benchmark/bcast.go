package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"skyway"
	"skyway/internal/datagen"
	"skyway/internal/gc"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/registry"
	"skyway/internal/vm"
)

// bcast is the bcast-media workload — JSBS (Fig. 7): every media-content
// graph goes through a fresh Writer into memory and through a fresh Reader at
// each receiver runtime, on a single goroutine, so the writer/reader pair is
// used as tens of thousands of tiny streams instead of one long one.
type bcast struct {
	observed
	snd   *vm.Runtime
	rcvs  []*vm.Runtime
	svc   *skyway.Service
	roots []*gc.Handle
	// want[i] is graph i's structural hash, walked on the sender heap at
	// build time; hash[r] walks a received graph on receiver r.
	want []uint64
	hash []func(heap.Addr) uint64
	buf  bytes.Buffer
}

func (b *bcast) nominalRate() float64 { return 5 }

func mediaHeap(edenMB, bufferMB uint64) heap.Config {
	return heap.Config{
		EdenSize: edenMB << 20, SurvivorSize: 2 << 20, OldSize: edenMB << 20, BufferSize: bufferMB << 20,
		Layout: klass.Layout{Baddr: true},
	}
}

// mediaHasher returns rt's structural hash of a media-content graph: every
// primitive field and every character of every string, in schema order,
// reached through vm accessors only. Klasses and fields resolve once.
func mediaHasher(rt *vm.Runtime) func(heap.Addr) uint64 {
	mck, mk, ik := rt.MustLoad(datagen.MediaContentClass), rt.MustLoad(datagen.MediaClass), rt.MustLoad(datagen.ImageClass)
	value := rt.MustLoad(vm.StringClass).FieldByName("value")
	fields := func(k *klass.Klass, names ...string) []*klass.Field {
		out := make([]*klass.Field, len(names))
		for i, n := range names {
			out[i] = k.FieldByName(n)
		}
		return out
	}
	mediaStr := fields(mk, "uri", "title", "format", "copyright")
	mediaInt := fields(mk, "width", "height", "bitrate", "player")
	mediaLong := fields(mk, "duration", "size")
	hasBitrate, persons := mk.FieldByName("hasBitrate"), mk.FieldByName("persons")
	imageStr := fields(ik, "uri", "title")
	imageInt := fields(ik, "width", "height", "size")
	mediaF, imagesF := mck.FieldByName("media"), mck.FieldByName("images")

	const prime = 1099511628211
	mix := func(h, v uint64) uint64 { return (h ^ v) * prime }
	str := func(h uint64, s heap.Addr) uint64 {
		chars := rt.GetRef(s, value)
		n := rt.ArrayLen(chars)
		h = mix(h, uint64(n))
		for i := 0; i < n; i++ {
			h = mix(h, uint64(rt.ArrayGetChar(chars, i)))
		}
		return h
	}
	return func(root heap.Addr) uint64 {
		h := uint64(14695981039346656037)
		media := rt.GetRef(root, mediaF)
		for _, f := range mediaStr {
			h = str(h, rt.GetRef(media, f))
		}
		for _, f := range mediaInt {
			h = mix(h, uint64(rt.GetInt(media, f)))
		}
		for _, f := range mediaLong {
			h = mix(h, uint64(rt.GetLong(media, f)))
		}
		if rt.GetBool(media, hasBitrate) {
			h = mix(h, 1)
		}
		ps := rt.GetRef(media, persons)
		for i, n := 0, rt.ArrayLen(ps); i < n; i++ {
			h = str(h, rt.ArrayGetRef(ps, i))
		}
		images := rt.GetRef(root, imagesF)
		for i, n := 0, rt.ArrayLen(images); i < n; i++ {
			img := rt.ArrayGetRef(images, i)
			for _, f := range imageStr {
				h = str(h, rt.GetRef(img, f))
			}
			for _, f := range imageInt {
				h = mix(h, uint64(rt.GetInt(img, f)))
			}
		}
		return h
	}
}

func (b *bcast) setup(seed uint64, sz sizes) error {
	cp := klass.NewPath()
	datagen.MediaClasses(cp)
	r := registry.NewRegistry()
	var err error
	// ~1.5 KB per graph on the sender; a receiver holds one graph at a time.
	b.snd, err = vm.NewRuntime(cp, vm.Options{Name: "sender", Registry: b.reg.client(r),
		Heap: mediaHeap(uint64(sz.media)*2048>>20+16, 4)})
	if err != nil {
		return err
	}
	b.runtimes = []*vm.Runtime{b.snd}
	for i := 0; i < sz.receivers; i++ {
		rcv, err := vm.NewRuntime(cp, vm.Options{Name: fmt.Sprintf("receiver-%d", i), Registry: b.reg.client(r), Heap: mediaHeap(8, 8)})
		if err != nil {
			return err
		}
		b.rcvs = append(b.rcvs, rcv)
		b.hash = append(b.hash, mediaHasher(rcv))
	}
	b.runtimes = append(b.runtimes, b.rcvs...)
	b.receivers = b.rcvs
	b.svc = skyway.NewService(b.snd)
	b.services = append(b.services, b.svc)

	gen := datagen.NewMediaGen(b.snd, seed)
	onSender := mediaHasher(b.snd)
	for i := 0; i < sz.media; i++ {
		a, err := gen.One(i)
		if err != nil {
			return err
		}
		b.roots = append(b.roots, b.snd.Pin(a))
	}
	for _, h := range b.roots {
		b.want = append(b.want, onSender(h.Addr()))
	}
	for i := 0; i < sz.warmup; i++ {
		if _, err := b.iterate(nil, 0); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// Call groups of one iteration, in span order.
var bcastGroups = [...]string{"encode", "close", "decode", "consume", "free"}

func (b *bcast) iterate(tr *tracer, iter int) (iterResult, error) {
	root := tr.root("iter", iter)
	defer root.end()
	// One span per call group and graph would be 65 000 spans an
	// iteration, so a traced iteration accumulates each group's time over
	// its 25 000 streams and lays the sums down as one span per group.
	traced := tr != nil
	var acc [len(bcastGroups)]time.Duration
	start := time.Now()
	last := start
	lap := func(group int) {
		if traced {
			now := time.Now()
			acc[group] += now.Sub(last)
			last = now
		}
	}
	defer func() {
		for g, name := range bcastGroups {
			root.add(name, tidMain, start, acc[g])
			start = start.Add(acc[g])
		}
	}()

	b.svc.ShuffleStart()
	var res iterResult
	for i, h := range b.roots {
		b.buf.Reset()
		w := b.svc.NewWriter(&b.buf)
		if err := w.WriteObject(h.Addr()); err != nil {
			return res, err
		}
		lap(0)
		if err := w.Close(); err != nil {
			return res, err
		}
		wire := b.buf.Bytes()
		lap(1)
		for r, rcv := range b.rcvs {
			rd := skyway.NewReader(rcv, bytes.NewReader(wire))
			a, err := rd.ReadObject()
			if err != nil {
				rd.Free()
				return res, fmt.Errorf("graph %d at receiver %d: %w", i, r, err)
			}
			_, eof := rd.ReadObject()
			lap(2)
			got := b.hash[r](a)
			lap(3)
			rd.Free()
			lap(4)
			switch {
			case eof != io.EOF:
				return res, fmt.Errorf("graph %d at receiver %d: stream did not end after one root: %v", i, r, eof)
			case got != b.want[i]:
				return res, fmt.Errorf("graph %d at receiver %d: hash %#x, want %#x", i, r, got, b.want[i])
			}
			res.records++
			res.wireBytes += int64(len(wire))
		}
	}
	return res, nil
}

func (b *bcast) close() error {
	for _, h := range b.roots {
		h.Release()
	}
	return nil
}
