package skyway_test

import (
	"bytes"
	"io"
	"net"
	"testing"

	"skyway"
)

// The root-package tests exercise the public API exactly the way the README
// shows it, including the TCP registry deployment.

func pointPath() *skyway.ClassPath {
	return skyway.NewClassPath(
		&skyway.ClassDef{Name: "Point", Fields: []skyway.FieldDef{
			{Name: "x", Kind: skyway.Int32},
			{Name: "y", Kind: skyway.Int32},
			{Name: "label", Kind: skyway.Ref, Class: "java.lang.String"},
		}},
	)
}

func TestPublicAPIRoundTrip(t *testing.T) {
	cp := pointPath()
	reg := skyway.NewInProcRegistry()
	sender, err := skyway.NewRuntime(cp, skyway.RuntimeOptions{Name: "a", Registry: reg.Client()})
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := skyway.NewRuntime(cp, skyway.RuntimeOptions{Name: "b", Registry: reg.Client()})
	if err != nil {
		t.Fatal(err)
	}

	k := sender.MustLoad("Point")
	p := sender.MustNew(k)
	ph := sender.Pin(p)
	sender.SetInt(ph.Addr(), k.FieldByName("x"), -3)
	sender.SetInt(ph.Addr(), k.FieldByName("y"), 9)
	s := sender.MustNewString("origin-ish")
	sender.SetRef(ph.Addr(), k.FieldByName("label"), s)

	var wire bytes.Buffer
	svc := skyway.NewService(sender)
	w := svc.NewWriter(&wire)
	if err := w.WriteObject(ph.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ph.Release()

	r := skyway.NewReader(receiver, &wire)
	got, err := r.ReadObject()
	if err != nil {
		t.Fatal(err)
	}
	rk := receiver.MustLoad("Point")
	if receiver.GetInt(got, rk.FieldByName("x")) != -3 || receiver.GetInt(got, rk.FieldByName("y")) != 9 {
		t.Error("coordinates corrupted")
	}
	if receiver.GoString(receiver.GetRef(got, rk.FieldByName("label"))) != "origin-ish" {
		t.Error("label corrupted")
	}
	if _, err := r.ReadObject(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestPublicAPIOverTCPRegistry(t *testing.T) {
	cp := pointPath()
	reg := skyway.NewInProcRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := skyway.ServeRegistry(reg, ln)
	defer srv.Close()

	newWorker := func(name string) *skyway.Runtime {
		client, err := skyway.DialRegistry(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		rt, err := skyway.NewRuntime(cp, skyway.RuntimeOptions{Name: name, Registry: client})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	a := newWorker("a")
	b := newWorker("b")

	// Class numbering agrees across workers regardless of load order.
	kb := b.MustLoad("Point")
	ka := a.MustLoad("Point")
	if ka.TID != kb.TID || ka.TID < 0 {
		t.Fatalf("TIDs disagree: %d vs %d", ka.TID, kb.TID)
	}

	// And a transfer over an in-memory pipe works end to end.
	p := a.MustNew(ka)
	a.SetInt(p, ka.FieldByName("x"), 7)
	var wire bytes.Buffer
	w := skyway.NewService(a).NewWriter(&wire, skyway.WithBufferSize(128))
	if err := w.WriteObject(p); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err := skyway.NewReader(b, &wire).ReadObject()
	if err != nil {
		t.Fatal(err)
	}
	if b.GetInt(got, kb.FieldByName("x")) != 7 {
		t.Error("transfer corrupted")
	}
}
