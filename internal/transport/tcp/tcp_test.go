package tcp

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"skyway/internal/core"
	"skyway/internal/fault"
	"skyway/internal/framed"
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
