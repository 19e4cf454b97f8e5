package registry

import (
	"errors"
	"net"
	"testing"
	"time"

	"skyway/internal/fault"
	"skyway/internal/framed"
)

// fastPolicy is the failpoint tests' retry policy: the default's shape with
// the waits shortened.
var fastPolicy = framed.Policy{Timeout: time.Second, Retries: 2, Backoff: time.Millisecond}

// faultServer boots a live registry server and a client with fast retry
// settings for failpoint tests.
func faultServer(t *testing.T, spec string) (*Registry, *TCPClient) {
	t.Helper()
	reg := NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(reg, ln)
	t.Cleanup(func() { srv.Close() })
	if err := fault.Configure(spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)
	c, err := dial(ln.Addr().String(), fastPolicy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return reg, c
}

// TestExchangeNonceRejectsReplayedResponse is the regression test for the
// replayed-exchange bug: a duplicated request frame makes the server answer
// twice, leaving a stale response buffered on the connection. Before the
// exchange nonce, the NEXT lookup consumed that stale response as its own
// answer and silently returned the wrong type ID — a replayed exchange
// treated as success. With the nonce, the client detects the stale response,
// drops the connection, and retries; every lookup returns its own ID.
func TestExchangeNonceRejectsReplayedResponse(t *testing.T) {
	reg, c := faultServer(t, fault.RegistryExchangeDup+":on*times=1")

	idAlpha, err := c.Lookup("pkg.Alpha")
	if err != nil {
		t.Fatalf("Lookup(Alpha) under dup: %v", err)
	}
	idBeta, err := c.Lookup("pkg.Beta")
	if err != nil {
		t.Fatalf("Lookup(Beta) after dup: %v", err)
	}
	if idBeta == idAlpha {
		t.Fatalf("replayed response adopted: Beta got Alpha's id %d", idAlpha)
	}
	if name, _ := reg.NameOf(idBeta); name != "pkg.Beta" {
		t.Fatalf("Beta resolved to id %d = %q", idBeta, name)
	}
	if name, _ := reg.NameOf(idAlpha); name != "pkg.Alpha" {
		t.Fatalf("Alpha resolved to id %d = %q", idAlpha, name)
	}
}

// TestExchangeNonceSurvivesRepeatedReplay hammers the dup failpoint on every
// exchange: each lookup must still map to its own name.
func TestExchangeNonceSurvivesRepeatedReplay(t *testing.T) {
	reg, c := faultServer(t, fault.RegistryExchangeDup+":on")

	names := []string{"a.A", "b.B", "c.C", "d.D", "e.E"}
	for _, n := range names {
		id, err := c.Lookup(n)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", n, err)
		}
		if got, _ := reg.NameOf(id); got != n {
			t.Fatalf("Lookup(%s) = id %d, which is %q", n, id, got)
		}
	}
}

// TestExchangeDropRedials severs the connection right before an exchange;
// the retry policy must redial and complete the lookup.
func TestExchangeDropRedials(t *testing.T) {
	reg, c := faultServer(t, fault.RegistryExchangeDrop+":on*times=1")

	id, err := c.Lookup("x.Y")
	if err != nil {
		t.Fatalf("Lookup under drop: %v", err)
	}
	if name, _ := reg.NameOf(id); name != "x.Y" {
		t.Fatalf("lookup resolved to %q", name)
	}
}

// TestDialFailpointSurfacesAndRecovers: a persistent dial failure surfaces
// as a *fault.Error through Dial; a transient one is absorbed by the
// exchange retry policy.
func TestDialFailpointSurfacesAndRecovers(t *testing.T) {
	reg := NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(reg, ln)
	defer srv.Close()

	if err := fault.Configure(fault.RegistryDial + ":on"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	_, err = dial(ln.Addr().String(), fastPolicy)
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Point != fault.RegistryDial {
		t.Fatalf("Dial under persistent dial fault = %v, want *fault.Error", err)
	}

	// Transient: the dial fails once, then the client connects and works.
	if err := fault.Configure(fault.RegistryDial + ":on*times=1"); err != nil {
		t.Fatal(err)
	}
	c, err := dial(ln.Addr().String(), fastPolicy)
	if err == nil {
		defer c.Close()
		if _, err := c.Lookup("p.Q"); err != nil {
			t.Fatalf("Lookup after transient dial fault: %v", err)
		}
		return
	}
	// Dial itself performs no retry; the first connection attempt absorbed
	// the injected failure, so a second Dial must succeed.
	c, err = dial(ln.Addr().String(), fastPolicy)
	if err != nil {
		t.Fatalf("second Dial after transient fault: %v", err)
	}
	defer c.Close()
	if _, err := c.Lookup("p.Q"); err != nil {
		t.Fatal(err)
	}
}

// TestExchangeDelayInjectsLatency: the delay failpoint stalls an exchange by
// its arg duration without failing it.
func TestExchangeDelayInjectsLatency(t *testing.T) {
	_, c := faultServer(t, fault.RegistryExchangeDelay+":on*times=1*arg=30ms")

	start := time.Now()
	if _, err := c.Lookup("slow.Class"); err != nil {
		t.Fatalf("Lookup under delay: %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delayed exchange took only %v", d)
	}
}
