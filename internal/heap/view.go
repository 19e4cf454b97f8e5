package heap

import (
	"fmt"
	"unsafe"

	"skyway/internal/klass"
)

// The slab is []uint64 so baddr words can be CASed through sync/atomic, but
// the wire format is defined in bytes: every segment copy used to go through
// a per-word encoding/binary loop. On little-endian hosts the slab's in-
// memory bytes already ARE the wire bytes (sub-word fields are little-endian
// within their word by construction), so the one unsafe construction below —
// reinterpreting a word range as a byte slice — turns both CopyIn and
// CopyOut into a single memcpy and lets the reader receive wire bytes
// directly into a pinned chunk with zero staging copies. Big-endian hosts
// (none in practice for Go's first-class ports) simply never get a view and
// fall back to the word loop, which is the portable definition of the
// format, not a different one.

// hostLittleEndian reports whether native byte order matches the wire's
// little-endian slab encoding.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// byteViewEnabled lets benchmarks force the portable copy path to measure
// the double-copy baseline; see SetByteView.
var byteViewEnabled = true

// SetByteView toggles the direct byte-view fast path, returning the previous
// setting. It exists for benchmarks (cmd/speedbench's "decode-copy" figure
// measures the pre-view double-copy baseline) and tests that need the
// portable word-loop path exercised on little-endian hosts. Not safe to
// toggle while other goroutines touch the heap.
func SetByteView(enabled bool) bool {
	prev := byteViewEnabled
	byteViewEnabled = enabled
	return prev
}

// ByteView returns the raw byte image of the n bytes at a, aliasing the
// slab: writes through the returned slice are heap writes. a and n must be
// word-aligned and in bounds (the caller's chunk was just allocated, so this
// panics on violation exactly like the word accessors). Returns nil when the
// host byte order does not match the slab encoding (or the view is disabled
// for benchmarking); callers must fall back to CopyIn/CopyOut.
func (h *Heap) ByteView(a Addr, n uint32) []byte {
	if !byteViewEnabled || !hostLittleEndian || n == 0 {
		return nil
	}
	if uint64(a)&7 != 0 || n%klass.WordSize != 0 {
		panic(fmt.Sprintf("heap: unaligned byte view [%#x, +%d)", uint64(a), n))
	}
	i := uint64(a) >> 3
	end := i + uint64(n)>>3
	if a == Null || end > uint64(len(h.words)) {
		panic(fmt.Sprintf("heap: byte view [%#x, +%d) outside slab", uint64(a), n))
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&h.words[i])), n)
}

// copyAligned is copy(dst, src) for the bulk transfers out of the slab. The
// runtime's memmove moves a very large block at about half speed when the
// destination is not cache-line aligned (measured 12 vs 19 GB/s at 512 KiB
// and 15 vs 39 GB/s at 1 MiB; no difference up to 256 KiB), and an object
// image lands wherever the output buffer happens to stand, so a large copy
// first brings its destination up to a line boundary.
func copyAligned(dst, src []byte) {
	const line, large = 64, 256 << 10
	if len(dst) >= large && len(src) >= len(dst) {
		head := int(-uintptr(unsafe.Pointer(&dst[0])) & (line - 1))
		copy(dst[:head], src[:head])
		dst, src = dst[head:], src[head:]
	}
	copy(dst, src)
}
