package freelist

import (
	"testing"

	"skyway/internal/race"
)

// TestListRecyclesWithinPeak: a returned buffer is handed out again for a
// request it fits, the list never holds more than the high-water of bytes
// in use, and when it is full a larger buffer displaces smaller ones.
func TestListRecyclesWithinPeak(t *testing.T) {
	var l List
	get := func(n int) []byte {
		t.Helper()
		b, err := l.Get(n)
		if err != nil || len(b) != n {
			t.Fatalf("Get(%d) = %d bytes, %v", n, len(b), err)
		}
		return b
	}
	small := get(100)
	small[0] = 1
	l.Put(small)
	// The peak is 100 bytes in use: the buffer is listed and comes back for
	// a request it fits.
	if b := get(60); &b[0] != &small[0] {
		t.Fatal("a listed buffer that fits was not reused")
	} else {
		if race.Enabled && b[0] != Poison {
			t.Fatalf("a recycled buffer under -race starts %#x, want the poison byte %#x", b[0], Poison)
		}
		l.Put(b)
	}
	// 300 bytes alone raise the peak to 300; returned, the 300-byte buffer
	// fits beside the 100-byte one only up to the peak, so it displaces it.
	large := get(300)
	l.Put(large)
	if l.held != 300 || len(l.free) != 1 || cap(l.free[0]) != 300 {
		t.Fatalf("list holds %d bytes in %d buffers, want the 300-byte one alone", l.held, len(l.free))
	}
	if b := get(10); &b[0] != &large[0] {
		t.Fatal("the best fit was not handed out")
	}
	l.Drain()
	if l.held != 0 || len(l.free) != 0 {
		t.Fatalf("drained list holds %d bytes", l.held)
	}
}

// TestListMaxFit: a list with MaxFit refuses a buffer too large for the
// request and allocates instead, and the hooks see every transition.
func TestListMaxFit(t *testing.T) {
	var parked, reopened, freed int
	l := List{
		MaxFit: 2,
		Park:   func([]byte) error { parked++; return nil },
		Reopen: func([]byte) error { reopened++; return nil },
		Free:   func([]byte) { freed++ },
	}
	a, _ := l.Get(4096)
	l.Put(a)
	if b, _ := l.Get(1000); &b[0] == &a[0] {
		t.Fatal("a 4096-byte buffer was handed out for 1000 bytes under MaxFit 2")
	}
	if b, _ := l.Get(2048); &b[0] != &a[0] {
		t.Fatal("a 4096-byte buffer was refused for 2048 bytes under MaxFit 2")
	}
	l.Drain()
	if parked != 1 || reopened != 1 || freed != 0 {
		t.Fatalf("hooks: parked %d, reopened %d, freed %d; want 1, 1, 0", parked, reopened, freed)
	}
}
