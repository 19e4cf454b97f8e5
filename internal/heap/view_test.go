package heap

import (
	"bytes"
	"encoding/binary"
	"testing"

	"skyway/internal/klass"
)

// TestAccessorsAgreeWithImage pins the slab's one definition: whatever a
// typed accessor stores, the byte view shows as exactly its little-endian
// encoding, and the heap accessor and the byte-image accessor read the same
// value back from it.
func TestAccessorsAgreeWithImage(t *testing.T) {
	h := New(DefaultConfig())
	const n = 64
	obj := h.AllocBuffer(n)
	view := h.ByteView(obj, n)
	if len(view) != n || cap(view) != n {
		t.Fatalf("view len %d cap %d, want %d", len(view), cap(view), n)
	}
	kinds := []klass.Kind{klass.Bool, klass.Int8, klass.Int16, klass.Char,
		klass.Int32, klass.Float32, klass.Int64, klass.Float64, klass.Ref}
	values := []uint64{0, 1, 0x7F, 0x80, 0xA5C3, 0xDEADBEEF, 0x0102030405060708, ^uint64(0)}
	for _, k := range kinds {
		size := k.Size()
		mask := ^uint64(0) >> (64 - 8*size)
		for off := uint32(0); off+size <= n; off += size { // every aligned slot
			for _, v := range values {
				for i := range view {
					view[i] = 0xEE
				}
				h.Store(obj, off, k, v)
				var want [8]byte
				binary.LittleEndian.PutUint64(want[:], v&mask)
				if !bytes.Equal(view[off:off+size], want[:size]) {
					t.Fatalf("%v at +%d: Store(%#x) left % x, want % x", k, off, v, view[off:off+size], want[:size])
				}
				for i, b := range view {
					if (uint32(i) < off || uint32(i) >= off+size) && b != 0xEE {
						t.Fatalf("%v at +%d: Store touched byte %d", k, off, i)
					}
				}
				if got := h.Load(obj, off, k); got != v&mask {
					t.Fatalf("%v at +%d: Load = %#x, want %#x", k, off, got, v&mask)
				}
				if got := LoadBytes(view, off, k); got != v&mask {
					t.Fatalf("%v at +%d: LoadBytes = %#x, want %#x", k, off, got, v&mask)
				}
				// And the other way: a store into the image is a heap store.
				StoreBytes(view, off, k, ^v)
				if got := h.Load(obj, off, k); got != ^v&mask {
					t.Fatalf("%v at +%d: Load after StoreBytes = %#x, want %#x", k, off, got, ^v&mask)
				}
			}
		}
	}
}

// TestWordsAgreeWithImage is the byte-order rule for whole words: plain and
// atomic word stores both land as little-endian bytes, and each is read back
// unchanged by the other and through the view.
func TestWordsAgreeWithImage(t *testing.T) {
	h := New(DefaultConfig())
	a := h.AllocBuffer(16)
	view := h.ByteView(a, 16)
	const v1, v2, v3 = 0x0102030405060708, 0xF0E0D0C0B0A09080, 0x1122334455667788

	h.StoreWord(a, v1)
	h.AtomicStoreWord(a+8, v2)
	if got := binary.LittleEndian.Uint64(view); got != v1 {
		t.Errorf("StoreWord shows as %#x through the view, want %#x", got, uint64(v1))
	}
	if got := binary.LittleEndian.Uint64(view[8:]); got != v2 {
		t.Errorf("AtomicStoreWord shows as %#x through the view, want %#x", got, uint64(v2))
	}
	if got := h.AtomicLoadWord(a); got != v1 {
		t.Errorf("AtomicLoadWord after StoreWord = %#x, want %#x", got, uint64(v1))
	}
	if got := h.LoadWord(a + 8); got != v2 {
		t.Errorf("LoadWord after AtomicStoreWord = %#x, want %#x", got, uint64(v2))
	}

	if h.CasWord(a, v2, v3) {
		t.Error("CasWord succeeded against the wrong old value")
	}
	if !h.CasWord(a, v1, v3) {
		t.Error("CasWord failed against the value StoreWord wrote")
	}
	if got := h.LoadWord(a); got != v3 {
		t.Errorf("LoadWord after CasWord = %#x, want %#x", got, uint64(v3))
	}
	if got := binary.LittleEndian.Uint64(view); got != v3 {
		t.Errorf("CasWord shows as %#x through the view, want %#x", got, uint64(v3))
	}
}

// TestCopyRoundTripsThroughView: CopyIn and CopyOut move exactly the bytes
// the view shows.
func TestCopyRoundTripsThroughView(t *testing.T) {
	h := New(DefaultConfig())
	const n = 64
	a := h.AllocBuffer(n)
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i*7 + 3)
	}
	h.CopyIn(a, n, src)
	if !bytes.Equal(h.ByteView(a, n), src) {
		t.Fatalf("view after CopyIn % x, want % x", h.ByteView(a, n), src)
	}
	for w := uint32(0); w < n; w += 8 {
		if got, want := h.LoadWord(a.Add(w)), binary.LittleEndian.Uint64(src[w:]); got != want {
			t.Fatalf("word +%d: %#x, want %#x", w, got, want)
		}
	}
	out := make([]byte, n)
	h.CopyOut(a, n, out)
	if !bytes.Equal(out, src) {
		t.Fatalf("CopyOut % x, want % x", out, src)
	}
}

// TestByteViewBounds pins the panic contract: a view is as bounds-checked as
// the word accessors it bypasses.
func TestByteViewBounds(t *testing.T) {
	h := New(DefaultConfig())
	a := h.AllocBuffer(64)
	if h.ByteView(a, 0) != nil {
		t.Fatal("zero-length view should be nil")
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("unaligned addr", func() { h.ByteView(a+1, 8) })
	mustPanic("unaligned len", func() { h.ByteView(a, klass.WordSize-1) })
	mustPanic("null", func() { h.ByteView(Null, 8) })
	mustPanic("past slab", func() { h.ByteView(a, 1<<30) })
	mustPanic("last word and one more", func() { h.ByteView(Addr(h.TotalBytes()-8), 16) })
}
