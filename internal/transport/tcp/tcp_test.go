package tcp

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"skyway/internal/core"
	"skyway/internal/fault"
	"skyway/internal/framed"
	"skyway/internal/race"
	"skyway/internal/transport/tcp/tcptest"
)

// startCluster boots n in-process block servers and a transport over them.
func startCluster(t *testing.T, n int) *Transport {
	t.Helper()
	_, tr := tcptest.Start(t, n, Serve, New)
	return tr
}

func patternBlock(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

// TestTornStreamSurfacesDecodeError: with the torn-stream failpoint firing
// on every DATA frame, a fetch exhausts the pool's retries and surfaces a
// *core.DecodeError (kind "checksum") — the same structured shape a torn
// simulated transfer produces, so the dataflow degradation ladder handles
// both identically. After the tear clears, the SAME stored block fetches
// intact: the damage was confined to the wire copy.
func TestTornStreamSurfacesDecodeError(t *testing.T) {
	tr := startCluster(t, 2)
	sh, err := tr.NewShuffle(1)
	if err != nil {
		t.Fatal(err)
	}
	want := patternBlock(600 << 10)
	if _, err := sh.Put(0, 1, want); err != nil {
		t.Fatal(err)
	}

	if err := fault.Configure(fault.TransportStreamTorn + ":on"); err != nil {
		t.Fatal(err)
	}
	got, _, err := sh.Fetch(0, 1)
	fault.Reset()
	if err == nil {
		t.Fatalf("fetch over a persistently torn stream returned %d bytes", len(got))
	}
	de, ok := core.AsDecodeError(err)
	if !ok {
		t.Fatalf("torn stream surfaced %T (%v), want *core.DecodeError", err, err)
	}
	if de.Kind != core.DecodeChecksum {
		t.Fatalf("torn stream DecodeError kind %v, want checksum", de.Kind)
	}

	got, _, err = sh.Fetch(0, 1)
	if err != nil {
		t.Fatalf("fetch after the tear cleared: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stored block damaged by the torn wire copies")
	}
}

// TestTornStreamTransientAbsorbedByRetry: a single torn frame is absorbed by
// the pool's fresh-connection retry — the caller sees a clean block.
func TestTornStreamTransientAbsorbedByRetry(t *testing.T) {
	tr := startCluster(t, 2)
	sh, err := tr.NewShuffle(1)
	if err != nil {
		t.Fatal(err)
	}
	want := patternBlock(64 << 10)
	if _, err := sh.Put(1, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := fault.Configure(fault.TransportStreamTorn + ":on*times=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	got, _, err := sh.Fetch(1, 0)
	if err != nil {
		t.Fatalf("fetch with one torn frame: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("retried fetch returned damaged bytes")
	}
	if fault.Fired(fault.TransportStreamTorn) == 0 {
		t.Fatal("torn failpoint never fired; the test exercised nothing")
	}
}

// TestTornStoredBlockSurfacesDecodeError: a byte of a block damaged while
// it is parked on its block server reaches the fetcher's integrity check —
// the server serves the CRCs it verified when the block arrived, not ones
// recomputed over what it holds now — so the fetch fails with a
// *core.DecodeError of kind "checksum" rather than handing a codec with no
// checksum of its own silently wrong bytes. Once the byte is restored, the
// block fetches intact.
func TestTornStoredBlockSurfacesDecodeError(t *testing.T) {
	srvs, tr := tcptest.Start(t, 2, Serve, New)
	sh, err := tr.NewShuffle(3)
	if err != nil {
		t.Fatal(err)
	}
	want := patternBlock(600 << 10)
	if _, err := sh.Put(0, 1, want); err != nil {
		t.Fatal(err)
	}
	// A byte in the middle chunk of three.
	const off = chunkBytes + 12345
	if !srvs[0].flipStored(3, 0, 1, off) {
		t.Fatal("block (0→1) is not parked on executor 0's server")
	}
	got, _, err := sh.Fetch(0, 1)
	if err == nil {
		t.Fatalf("fetch of a block damaged in storage returned %d bytes and no error", len(got))
	}
	de, ok := core.AsDecodeError(err)
	if !ok || de.Kind != core.DecodeChecksum {
		t.Fatalf("fetch of a block damaged in storage: %T (%v), want a checksum *core.DecodeError", err, err)
	}

	srvs[0].flipStored(3, 0, 1, off)
	got, _, err = sh.Fetch(0, 1)
	if err != nil {
		t.Fatalf("fetch after the byte was restored: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("restored block fetched with different bytes")
	}
}

// TestWarmBlockExchangeAllocs is the allocation gate on the block path: a
// warm Put / Fetch / Drop of a 16-frame block allocates exactly as often as
// one of a 4-frame block. Nothing is allocated per received frame or per
// staged byte, on either end — every DATA frame lands in a recycled block
// buffer, and ACKs and frame headers cost nothing.
func TestWarmBlockExchangeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark skipped in -short mode")
	}
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	sh, err := startCluster(t, 2).NewShuffle(1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(size int) float64 {
		block := patternBlock(size)
		exchange := func() {
			if _, err := sh.Put(0, 1, block); err != nil {
				t.Fatal(err)
			}
			got, _, err := sh.Fetch(0, 1)
			if err != nil || len(got) != size {
				t.Fatalf("fetch: %d bytes, err %v", len(got), err)
			}
			sh.Drop(0, 1)
		}
		exchange() // warm the free lists and the connection
		return testing.AllocsPerRun(20, exchange)
	}
	small, large := allocs(4*chunkBytes), allocs(16*chunkBytes)
	if small != large {
		t.Fatalf("a warm exchange allocates %.0f times for a 4-frame block and %.0f times for a 16-frame one", small, large)
	}
	t.Logf("%.0f allocations per warm Put / Fetch / Drop, 4 or 16 frames", small)
}

// TestDroppedBlockWaitsForItsGET: a block server recycles a dropped or
// replaced block's buffer only once every GET sending from it is done. With
// a GET's pin held, the block is dropped and a same-sized block is put —
// the PUT that would receive into the recycled buffer — and the pinned
// bytes must not change; after the unpin, the buffer is recycled.
func TestDroppedBlockWaitsForItsGET(t *testing.T) {
	srvs, tr := tcptest.Start(t, 1, Serve, New)
	sh, err := tr.NewShuffle(4)
	if err != nil {
		t.Fatal(err)
	}
	want := patternBlock(2*chunkBytes + 7)
	if _, err := sh.Put(0, 0, want); err != nil {
		t.Fatal(err)
	}
	srv := srvs[0]
	b := srv.pin(blockID{seq: 4})
	sh.Drop(0, 0)
	if _, err := sh.Put(0, 0, make([]byte, len(want))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.buf, want) {
		t.Fatal("a dropped block's buffer was recycled while a GET was sending from it")
	}
	// Unpinned, the buffer is the only one listed, so the next PUT
	// receives into it.
	srv.unpin(b)
	if _, err := sh.Put(0, 0, make([]byte, len(want))); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b.buf, want) {
		t.Fatal("the buffer was not recycled once its last GET finished")
	}
}

// TestReplaceAndFetchConcurrently: one transport keeps replacing and
// dropping a block while another keeps fetching it — the server's table,
// pins and free list under concurrent use, for the race detector. Every
// fetch returns nothing or one whole version, never a mix of two, and no
// exchange needs a retry.
func TestReplaceAndFetchConcurrently(t *testing.T) {
	srvs, writer := tcptest.Start(t, 1, Serve, New)
	reader := New(map[int]string{0: srvs[0].Addr().String()})
	defer reader.Close()
	w, err := writer.NewShuffle(5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := reader.NewShuffle(5)
	if err != nil {
		t.Fatal(err)
	}
	var versions [4][]byte
	for v := range versions {
		versions[v] = make([]byte, 3*chunkBytes+100)
		for i := range versions[v] {
			versions[v][i] = byte(v) ^ byte(i*7)
		}
	}
	retries := framed.SKWT.Retries.Value()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 0; ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := w.Put(0, 0, versions[v%len(versions)]); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
			if v%3 == 2 {
				w.Drop(0, 0)
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for n := 0; n < 200; n++ {
		got, _, err := r.Fetch(0, 0)
		if err != nil {
			t.Fatalf("fetch %d: %v", n, err)
		}
		if got == nil {
			continue
		}
		for i, b := range got {
			if b != got[0]^byte(i*7) {
				t.Fatalf("fetch %d: byte %d is %#x, not version %d's", n, i, b, got[0])
			}
		}
	}
	if d := framed.SKWT.Retries.Value() - retries; d != 0 {
		t.Fatalf("%d exchanges retried: a GET sent from a buffer recycled under it", d)
	}
}

// TestSlowPeerBackpressure: a receiver stalled before each credit grant must
// slow the SENDER down — the send window blocks the Put until the acks
// arrive, so the measured put time is bounded below by the per-chunk stall
// times the chunk count. This is the test that says the window is real flow
// control, not decoration.
func TestSlowPeerBackpressure(t *testing.T) {
	tr := startCluster(t, 2)
	sh, err := tr.NewShuffle(1)
	if err != nil {
		t.Fatal(err)
	}
	const delay = 5 * time.Millisecond
	// 9 chunks: more than the send window, so the sender must block on
	// credits mid-stream, not just at the trailing ack drain.
	block := patternBlock(8*chunkBytes + 1)
	chunks := (len(block) + chunkBytes - 1) / chunkBytes
	if chunks <= defaultWindow {
		t.Fatalf("test block spans %d chunks, need > window %d", chunks, defaultWindow)
	}
	if err := fault.Configure(fault.TransportPeerSlow + ":on*arg=5ms"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	elapsed, err := sh.Put(0, 1, block)
	if err != nil {
		t.Fatalf("Put under slow peer: %v", err)
	}
	if floor := time.Duration(chunks) * delay; elapsed < floor {
		t.Fatalf("Put returned in %v, below the %v backpressure floor (%d chunks × %v)",
			elapsed, floor, chunks, delay)
	}
}

// TestDialFailpoint: a persistent dial failure surfaces as a *fault.Error
// once the retry budget is spent; a transient one is absorbed by the pool's
// backoff-and-redial discipline.
func TestDialFailpoint(t *testing.T) {
	tr := startCluster(t, 2)
	sh, err := tr.NewShuffle(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Configure(fault.TransportDial + ":on"); err != nil {
		t.Fatal(err)
	}
	_, err = sh.Put(0, 1, patternBlock(1024))
	fault.Reset()
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Point != fault.TransportDial {
		t.Fatalf("Put under persistent dial fault = %v, want *fault.Error for %s", err, fault.TransportDial)
	}

	if err := fault.Configure(fault.TransportDial + ":on*times=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	want := patternBlock(1024)
	if _, err := sh.Put(0, 1, want); err != nil {
		t.Fatalf("Put under transient dial fault: %v", err)
	}
	got, _, err := sh.Fetch(0, 1)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("fetch after transient dial fault: %d bytes, err %v", len(got), err)
	}
}

// TestPooledConnectionReuse: consecutive exchanges with the same peer reuse
// one pooled connection instead of dialing per exchange.
func TestPooledConnectionReuse(t *testing.T) {
	sh, err := startCluster(t, 1).NewShuffle(1)
	if err != nil {
		t.Fatal(err)
	}
	before := framed.SKWT.Dials.Value()
	for i := 0; i < 5; i++ {
		if _, err := sh.Put(0, 0, patternBlock(512)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sh.Fetch(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if dials := framed.SKWT.Dials.Value() - before; dials != 1 {
		t.Fatalf("10 exchanges dialed %d connections, want 1 pooled connection", dials)
	}
}

// TestBadRequestComesBackAsERR: an op outside the request table — the
// retired broadcast ops included — or a known op with a header of the wrong
// size is answered with an ERR frame (a *framed.RemoteError at the client),
// the connection is severed, and nothing is stored.
func TestBadRequestComesBackAsERR(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln)
	defer srv.Close()
	cli := framed.NewClient(&framed.SKWT, framed.Policy{Timeout: time.Second})
	defer cli.Close()

	id := appendBlockID(nil, blockID{seq: 1})
	for _, tc := range []struct {
		name string
		op   byte
		hdr  []byte
	}{
		{"retired BCAST-PUT", 'B', appendExtent([]byte{0, 0, 0, 1}, 8)},
		{"retired BCAST-GET", 'F', []byte{0, 0, 0, 1}},
		{"PUT without an extent", opPut, id},
		{"GET one byte short", opGet, id[:11]},
		{"DROP one byte long", opDrop, append(id, 0)},
	} {
		err := cli.Exchange(ln.Addr().String(), func(c *framed.Conn) error {
			if err := framed.WriteFrame(c.W, tc.op, tc.hdr); err != nil {
				return err
			}
			_, resp, err := c.Recv()
			framed.Release(resp)
			var re *framed.RemoteError
			if !errors.As(err, &re) || !strings.Contains(re.Detail, "bad request") {
				t.Errorf("%s: server answered %v, want a *framed.RemoteError naming a bad request", tc.name, err)
			}
			if _, _, err := framed.ReadFrame(c.R); err == nil {
				t.Errorf("%s: connection still open after the ERR", tc.name)
			}
			return err
		})
		if err == nil {
			t.Errorf("%s: exchange succeeded", tc.name)
		}
	}
	if n := srv.Stored(); n != 0 {
		t.Fatalf("bad requests stored %d blocks", n)
	}
}
