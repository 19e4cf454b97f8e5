package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/registry"
	"skyway/internal/vm"
)

// Soak: random interleavings of sends, receives, GCs on both sides, frees
// and phase changes must preserve every transferred value. This is the
// closest thing to the paper's Spark runs in miniature: transfer activity
// and collector activity continuously overlapping.
func TestTransferGCInterleavingSoak(t *testing.T) {
	cp := testClusterPath()
	reg := registry.InProc{R: registry.NewRegistry()}
	small := heap.Config{
		EdenSize:     192 << 10,
		SurvivorSize: 32 << 10,
		OldSize:      1 << 20,
		BufferSize:   1 << 20,
		Layout:       klass.Layout{Baddr: true},
	}
	snd, err := vm.NewRuntime(cp, vm.Options{Name: "soak-snd", Heap: small, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := vm.NewRuntime(cp, vm.Options{Name: "soak-rcv", Heap: small, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	sky := New(snd)
	ck := snd.MustLoad("Cell")
	rck := rcv.MustLoad("Cell")
	vF, nF := ck.FieldByName("v"), ck.FieldByName("next")

	type received struct {
		rd   *Reader
		pin  interface{ Addr() heap.Addr }
		rel  func()
		vals []float64
	}
	var inflight []*received
	checkReceived := func(r *received) bool {
		cur := r.pin.Addr()
		for _, want := range r.vals {
			if cur == heap.Null || rcv.GetDouble(cur, rck.FieldByName("v")) != want {
				return false
			}
			cur = rcv.GetRef(cur, rck.FieldByName("next"))
		}
		return cur == heap.Null
	}

	f := func(ops []uint8) bool {
		defer func() {
			for _, r := range inflight {
				r.rel()
				r.rd.Free()
			}
			inflight = nil
		}()
		for i, op := range ops {
			switch op % 6 {
			case 0, 1: // send+receive a fresh list
				n := 1 + int(op)%15
				vals := make([]float64, n)
				head := snd.MustNew(ck)
				hp := snd.Pin(head)
				prev := snd.Pin(head)
				for j := 0; j < n; j++ {
					vals[j] = float64(i*100 + j)
					if j == 0 {
						snd.SetDouble(hp.Addr(), vF, vals[j])
						continue
					}
					c := snd.MustNew(ck)
					snd.SetDouble(c, vF, vals[j])
					snd.SetRef(prev.Addr(), nF, c)
					prev.Set(c)
				}
				prev.Release()
				var buf bytes.Buffer
				w := sky.NewWriter(&buf, WithBufferSize(256))
				if err := w.WriteObject(hp.Addr()); err != nil {
					t.Logf("write: %v", err)
					return false
				}
				w.Close()
				hp.Release()
				rd := NewReader(rcv, &buf)
				got, err := rd.ReadObject()
				if err != nil {
					t.Logf("read: %v", err)
					return false
				}
				h := rcv.Pin(got)
				inflight = append(inflight, &received{rd: rd, pin: h, rel: h.Release, vals: vals})
			case 2: // free the oldest received graph
				if len(inflight) > 0 {
					r := inflight[0]
					r.rel()
					r.rd.Free()
					inflight = inflight[1:]
				}
			case 3: // sender GC
				if !snd.GC.Scavenge() {
					snd.GC.FullGC()
				}
			case 4: // receiver GC (full every few ops)
				if op%2 == 0 {
					rcv.GC.FullGC()
				} else if !rcv.GC.Scavenge() {
					rcv.GC.FullGC()
				}
			case 5: // new shuffle phase + receiver allocation noise
				sky.ShuffleStart()
				for j := 0; j < 5; j++ {
					rcv.MustNewArray(rcv.MustLoad("double[]"), 32)
				}
			}
			for _, r := range inflight {
				if !checkReceived(r) {
					t.Logf("op %d (%d): received graph corrupted", i, op%6)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
