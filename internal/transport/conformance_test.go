// Conformance suite for transport.Transport implementations: every behavior
// the dataflow engine relies on is pinned here against BOTH shipped
// transports — the in-process simulator and the
// real-socket TCP transport over in-process block servers — so the two
// worlds cannot drift apart behind the seam.
package transport_test

import (
	"bytes"
	"fmt"
	"testing"

	"skyway/internal/netsim"
	"skyway/internal/transport"
	tcptransport "skyway/internal/transport/tcp"
	"skyway/internal/transport/tcp/tcptest"
)

const conformanceWorkers = 3

// eachTransport runs fn once per shipped implementation, with a fresh
// transport each time.
func eachTransport(t *testing.T, fn func(t *testing.T, tr transport.Transport)) {
	t.Helper()
	impls := map[string]func(t *testing.T) transport.Transport{
		"netsim": func(t *testing.T) transport.Transport {
			return netsim.NewLocalTransport()
		},
		"tcp": func(t *testing.T) transport.Transport {
			return startTCP(t, conformanceWorkers)
		},
	}
	for name, mk := range impls {
		t.Run(name, func(t *testing.T) {
			tr := mk(t)
			t.Cleanup(func() { tr.Close() })
			fn(t, tr)
		})
	}
}

// startTCP boots n in-process executor block servers and a transport over
// them — the same server code skywayd -executor runs, minus the process
// boundary (the multi-process path is pinned by the dataflow cluster test).
func startTCP(t *testing.T, n int) *tcptransport.Transport {
	t.Helper()
	_, tr := tcptest.Start(t, n, tcptransport.Serve, tcptransport.New)
	return tr
}

// testBlock builds a deterministic block whose content encodes its identity,
// sized to span size bytes (several chunks when above the TCP chunk budget).
func testBlock(src, dst, size int) []byte {
	b := make([]byte, size)
	seed := byte(31*src + dst + 7)
	for i := range b {
		seed = seed*131 + byte(i)
		b[i] = seed
	}
	copy(b, []byte(fmt.Sprintf("block-%d-%d|", src, dst)))
	return b
}

// TestConformanceShuffleRoundtrip: every published (src, dst) block comes
// back bit-identical — including blocks large enough to cross the TCP
// transport's chunking — an unpublished pair fetches as nil, a dropped block
// is gone, and rounds are isolated by seq.
func TestConformanceShuffleRoundtrip(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport.Transport) {
		sh, err := tr.NewShuffle(1)
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()

		sizes := []int{1, 4 << 10, 300 << 10, 1 << 20} // 300K and 1M span chunks
		want := make(map[[2]int][]byte)
		for src := 0; src < conformanceWorkers; src++ {
			for dst := 0; dst < conformanceWorkers; dst++ {
				if src == dst && src == 0 {
					continue // (0,0) stays unpublished
				}
				b := testBlock(src, dst, sizes[(src*conformanceWorkers+dst)%len(sizes)])
				want[[2]int{src, dst}] = b
				if _, err := sh.Put(src, dst, b); err != nil {
					t.Fatalf("Put(%d,%d): %v", src, dst, err)
				}
			}
		}
		for key, wb := range want {
			got, _, err := sh.Fetch(key[0], key[1])
			if err != nil {
				t.Fatalf("Fetch(%d,%d): %v", key[0], key[1], err)
			}
			if !bytes.Equal(got, wb) {
				t.Fatalf("Fetch(%d,%d): %d bytes, want %d, content differs=%v",
					key[0], key[1], len(got), len(wb), !bytes.Equal(got, wb))
			}
		}
		// Re-fetch: the stored block survives fetches (the degradation
		// ladder re-fetches from the intact source).
		if got, _, err := sh.Fetch(1, 2); err != nil || !bytes.Equal(got, want[[2]int{1, 2}]) {
			t.Fatalf("re-Fetch(1,2) = %d bytes, err %v", len(got), err)
		}
		if got, _, err := sh.Fetch(0, 0); err != nil || got != nil {
			t.Fatalf("Fetch of unpublished block = %d bytes, err %v; want nil, nil", len(got), err)
		}
		sh.Drop(1, 2)
		if got, _, err := sh.Fetch(1, 2); err != nil || got != nil {
			t.Fatalf("Fetch after Drop = %d bytes, err %v; want nil, nil", len(got), err)
		}

		sh2, err := tr.NewShuffle(2)
		if err != nil {
			t.Fatal(err)
		}
		defer sh2.Close()
		if got, _, err := sh2.Fetch(2, 1); err != nil || got != nil {
			t.Fatalf("round 2 sees round 1's block (%d bytes, err %v)", len(got), err)
		}
	})
}

// TestConformanceBroadcast pins the shape a broadcast takes on the seam: the
// same payload put as the self-addressed block (ex, ex) on every executor —
// large enough to span chunks on the TCP path — fetches back bit-identical
// at each one, is gone after that executor's Drop while the others' copies
// stay, and is isolated from other rounds by seq.
func TestConformanceBroadcast(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport.Transport) {
		sh, err := tr.NewShuffle(7)
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()
		payload := testBlock(9, 9, 700<<10)
		for ex := 0; ex < conformanceWorkers; ex++ {
			if _, err := sh.Put(ex, ex, payload); err != nil {
				t.Fatalf("Put(%d,%d): %v", ex, ex, err)
			}
		}
		other, err := tr.NewShuffle(8)
		if err != nil {
			t.Fatal(err)
		}
		defer other.Close()
		for ex := 0; ex < conformanceWorkers; ex++ {
			got, _, err := sh.Fetch(ex, ex)
			if err != nil {
				t.Fatalf("Fetch(%d,%d): %v", ex, ex, err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("executor %d broadcast copy differs (%d bytes, want %d)", ex, len(got), len(payload))
			}
			if got, _, err := other.Fetch(ex, ex); err != nil || got != nil {
				t.Fatalf("round 8 sees round 7's block at executor %d (%d bytes, err %v)", ex, len(got), err)
			}
			sh.Drop(ex, ex)
			if got, _, err := sh.Fetch(ex, ex); err != nil || got != nil {
				t.Fatalf("Fetch(%d,%d) after Drop = %d bytes, err %v; want nil, nil", ex, ex, len(got), err)
			}
		}
	})
}
