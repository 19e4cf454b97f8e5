package registry

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"testing/quick"
)

func TestLookupOrAssignStable(t *testing.T) {
	r := NewRegistry()
	a := r.LookupOrAssign("java.lang.Object")
	b := r.LookupOrAssign("org.apache.spark.rdd.RDD")
	if a == b {
		t.Fatal("distinct classes share an ID")
	}
	if got := r.LookupOrAssign("java.lang.Object"); got != a {
		t.Fatal("repeated lookup changed the ID")
	}
	if n, ok := r.NameOf(a); !ok || n != "java.lang.Object" {
		t.Fatalf("NameOf(%d) = %q, %v", a, n, ok)
	}
	if _, ok := r.NameOf(99); ok {
		t.Fatal("NameOf of unassigned ID succeeded")
	}
}

func TestPopulateAndView(t *testing.T) {
	r := NewRegistry()
	r.Populate([]string{"A", "B", "C"})
	v := r.View()
	if len(v) != 3 {
		t.Fatalf("view has %d entries", len(v))
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	names := r.Names()
	for i, n := range names {
		if v[n] != int32(i) {
			t.Errorf("Names()[%d] = %s but View says %d", i, n, v[n])
		}
	}
}

func TestViewCacheAvoidsRemoteLookups(t *testing.T) {
	r := NewRegistry()
	r.Populate([]string{"A", "B"})
	v, err := NewView(InProc{R: r})
	if err != nil {
		t.Fatal(err)
	}
	// Cached names must not hit the driver.
	if _, err := v.IDFor("A"); err != nil {
		t.Fatal(err)
	}
	if l, _ := v.RemoteLookups(); l != 0 {
		t.Errorf("cached lookup went remote (%d)", l)
	}
	// A miss does.
	if _, err := v.IDFor("C"); err != nil {
		t.Fatal(err)
	}
	if l, _ := v.RemoteLookups(); l != 1 {
		t.Errorf("lookup count = %d, want 1", l)
	}
	// And only once — §4.1: "a type string at most once per class per
	// machine".
	if _, err := v.IDFor("C"); err != nil {
		t.Fatal(err)
	}
	if l, _ := v.RemoteLookups(); l != 1 {
		t.Errorf("second lookup of C went remote")
	}
	if len(v.ids) != 3 {
		t.Errorf("view caches %d type strings, want 3", len(v.ids))
	}
}

func TestConcurrentAssignIsConsistent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	ids := make([][]int32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ids[w] = append(ids[w], r.LookupOrAssign(fmt.Sprintf("class-%d", i)))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range ids[0] {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("worker %d saw class-%d as %d, worker 0 as %d", w, i, ids[w][i], ids[0][i])
			}
		}
	}
}

func TestTCPProtocol(t *testing.T) {
	reg := NewRegistry()
	reg.Populate([]string{"seed.Class"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(reg, ln)
	defer srv.Close()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	view, err := c.RequestView()
	if err != nil {
		t.Fatal(err)
	}
	if view["seed.Class"] != 0 {
		t.Errorf("view = %v", view)
	}

	id, err := c.Lookup("worker.Class")
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("Lookup assigned %d", id)
	}
	name, err := c.Reverse(id)
	if err != nil || name != "worker.Class" {
		t.Errorf("Reverse = %q, %v", name, err)
	}
	if _, err := c.Reverse(42); err == nil {
		t.Error("Reverse of unknown ID succeeded")
	}
}

func TestTCPViewThroughClient(t *testing.T) {
	reg := NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(reg, ln)
	defer srv.Close()

	// Two workers through independent connections must agree on IDs
	// regardless of lookup order (Figure 5's scenario).
	c1, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	v1, err := NewView(c1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := NewView(c2)
	if err != nil {
		t.Fatal(err)
	}
	idA1, _ := v1.IDFor("A")
	idB2, _ := v2.IDFor("B")
	idA2, _ := v2.IDFor("A")
	idB1, _ := v1.IDFor("B")
	if idA1 != idA2 || idB1 != idB2 {
		t.Errorf("IDs disagree: A %d/%d, B %d/%d", idA1, idA2, idB1, idB2)
	}
	n, err := v1.NameFor(idB1)
	if err != nil || n != "B" {
		t.Errorf("NameFor = %q, %v", n, err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	reg := NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(reg, ln)
	defer srv.Close()

	const workers = 6
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			c, err := Dial(ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				if _, err := c.Lookup(fmt.Sprintf("class-%d", i)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if reg.Len() != 50 {
		t.Errorf("registry has %d classes, want 50", reg.Len())
	}
}

// Property: IDs are dense (0..n-1) and name↔ID is a bijection no matter the
// interleaving of registrations.
func TestRegistryBijectionQuick(t *testing.T) {
	f := func(names []string) bool {
		r := NewRegistry()
		seen := make(map[string]bool)
		for _, n := range names {
			if n == "" {
				continue
			}
			r.LookupOrAssign(n)
			seen[n] = true
		}
		if r.Len() != len(seen) {
			return false
		}
		for name, id := range r.View() {
			back, ok := r.NameOf(id)
			if !ok || back != name {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	r := NewRegistry()
	names := []string{"java.lang.Object", "a.B", "c.D", "e.F[]"}
	r.Populate(names)

	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != r.Len() {
		t.Fatalf("restored %d of %d types", restored.Len(), r.Len())
	}
	for _, n := range names {
		if restored.LookupOrAssign(n) != r.LookupOrAssign(n) {
			t.Errorf("ID of %s changed across snapshot/restore", n)
		}
	}
	// A restarted driver can keep assigning fresh IDs.
	if id := restored.LookupOrAssign("new.Class"); id != int32(len(names)) {
		t.Errorf("fresh assignment after restore = %d", id)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage snapshot accepted")
	}
	if _, err := Restore(bytes.NewReader(nil)); err == nil {
		t.Error("empty snapshot accepted")
	}
}
