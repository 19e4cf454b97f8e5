package transport

import "testing"

func TestBlockStorePutGetDrop(t *testing.T) {
	s := NewBlockStore[string]()

	s.Put("a", []byte("alpha"))
	s.Put("b", []byte("beta"))
	if s.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", s.Len())
	}
	if b, ok := s.Get("a"); !ok || string(b) != "alpha" {
		t.Fatalf("Get(a) = %q, %v", b, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get of a missing key reported ok")
	}

	// Replacing a key serves the new bytes.
	s.Put("a", []byte("alpha2"))
	if b, _ := s.Get("a"); string(b) != "alpha2" {
		t.Fatalf("Get after replace = %q", b)
	}

	s.Drop("a")
	if _, ok := s.Get("a"); ok {
		t.Fatal("Get after Drop reported ok")
	}
	s.Drop("a") // dropping a missing key is a no-op
	if s.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", s.Len())
	}
}
