package crc32c

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
)

// castagnoliRef is the oracle every test checks against: hash/crc32 with
// its own table, independent of the package's dispatch.
var castagnoliRef = crc32.MakeTable(crc32.Castagnoli)

// randomBytes returns n seeded random bytes.
func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// initialCRCs are the starting CRCs every sweep covers: zero, all ones and
// two seeded random values.
func initialCRCs() []uint32 {
	r := rand.New(rand.NewSource(7))
	return []uint32{0, 0xFFFFFFFF, r.Uint32(), r.Uint32()}
}

// checkSweep checks update against hash/crc32 over every length from 0 to
// maxLen at every offset from 0 to 63 of a random buffer, from every
// initial CRC.
func checkSweep(t *testing.T, update func(uint32, []byte) uint32, maxLen int) {
	t.Helper()
	buf := randomBytes(1, maxLen+64)
	for _, crc := range initialCRCs() {
		for off := 0; off < 64; off++ {
			for n := 0; n <= maxLen; n++ {
				p := buf[off : off+n]
				if got, want := update(crc, p), crc32.Update(crc, castagnoliRef, p); got != want {
					t.Fatalf("length %d at offset %d from %#x: %#x, want %#x", n, off, crc, got, want)
				}
			}
		}
	}
}

// TestUpdateMatchesHashCRC32 sweeps every length through the kernel
// threshold and four full 256-byte blocks past 4 KiB.
func TestUpdateMatchesHashCRC32(t *testing.T) {
	checkSweep(t, Update, 4096+4*foldBlock+foldBlock-1)
}

// TestUpdateBlockMultiples checks every multiple of 256 bytes up to 1 MiB,
// the lengths the kernel takes whole, each with no tail and with a short
// one.
func TestUpdateBlockMultiples(t *testing.T) {
	buf := randomBytes(2, 1<<20+64)
	crcs := initialCRCs()
	for n := foldBlock; n <= 1<<20; n += foldBlock {
		off := n / foldBlock % 64
		crc := crcs[n/foldBlock%len(crcs)]
		for _, p := range [][]byte{buf[off : off+n], buf[off : off+n+off%7]} {
			if got, want := Update(crc, p), crc32.Update(crc, castagnoliRef, p); got != want {
				t.Fatalf("length %d at offset %d from %#x: %#x, want %#x", len(p), off, crc, got, want)
			}
		}
	}
}

// TestUpdateConcatenates checks that a CRC carries across calls:
// Update(Update(c, a), b) == Update(c, a‖b), for splits on both sides of
// the threshold and inside a block.
func TestUpdateConcatenates(t *testing.T) {
	buf := randomBytes(3, 64<<10)
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		n := r.Intn(len(buf) + 1)
		split := r.Intn(n + 1)
		crc := r.Uint32()
		if got, want := Update(Update(crc, buf[:split]), buf[split:n]), Update(crc, buf[:n]); got != want {
			t.Fatalf("%d bytes split at %d from %#x: %#x, want %#x", n, split, crc, got, want)
		}
	}
}

// TestFoldKernel calls the folding kernel directly, on every length it
// accepts up to 64 KiB, at every offset from 0 to 63.
func TestFoldKernel(t *testing.T) {
	if fold == nil {
		t.Skip("this CPU has no AVX-512F and VPCLMULQDQ (or is not amd64): Update is hash/crc32 here")
	}
	buf := randomBytes(5, 64<<10+64)
	for _, crc := range initialCRCs() {
		for off := 0; off < 64; off++ {
			for n := foldBlock; n <= 64<<10; n += foldBlock {
				p := buf[off : off+n]
				if got, want := fold(crc, p), crc32.Update(crc, castagnoliRef, p); got != want {
					t.Fatalf("kernel over %d bytes at offset %d from %#x: %#x, want %#x", n, off, crc, got, want)
				}
			}
		}
	}
}

// TestGenericPath runs the length sweep with the kernel switched off: the
// path every CPU without it takes, checked on every CPU.
func TestGenericPath(t *testing.T) {
	saved := fold
	fold = nil
	t.Cleanup(func() { fold = saved })
	checkSweep(t, Update, 2*foldMin)
}

// TestUpdateAllocs holds Update to zero allocations, through the kernel
// and below it.
func TestUpdateAllocs(t *testing.T) {
	buf := randomBytes(6, 1<<20)
	var crc uint32
	for _, n := range []int{0, 100, foldMin - 1, foldMin, 1 << 20} {
		if allocs := testing.AllocsPerRun(100, func() { crc = Update(crc, buf[:n]) }); allocs != 0 {
			t.Errorf("Update over %d bytes: %v allocations, want 0", n, allocs)
		}
	}
}

// FuzzUpdate checks Update against hash/crc32 from any initial CRC, at any
// offset into any input. A short input is also checked repeated past the
// kernel threshold, so every input reaches the kernel where the CPU has
// it.
func FuzzUpdate(f *testing.F) {
	// Seeds: testdata/fuzz/FuzzUpdate.
	f.Fuzz(func(t *testing.T, crc uint32, off uint16, data []byte) {
		long := bytes.Repeat(data, foldMin/max(len(data), 1)+2)
		for _, p := range [][]byte{data, long} {
			p = p[int(off)%(len(p)+1):]
			if got, want := Update(crc, p), crc32.Update(crc, castagnoliRef, p); got != want {
				t.Fatalf("%d bytes from %#x: %#x, want %#x", len(p), crc, got, want)
			}
		}
	})
}

var sink uint32

// BenchmarkUpdate compares Update with hash/crc32 at a small frame, the
// threshold, a block chunk and a big segment.
func BenchmarkUpdate(b *testing.B) {
	for _, n := range []int{512, foldMin, 256 << 10, 1 << 20} {
		buf := randomBytes(8, n)
		b.Run(fmt.Sprintf("crc32c/%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				sink = Update(sink, buf)
			}
		})
		b.Run(fmt.Sprintf("hash-crc32/%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				sink = crc32.Update(sink, castagnoliRef, buf)
			}
		})
	}
}
