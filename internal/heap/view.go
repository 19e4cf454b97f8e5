package heap

import (
	"fmt"
	"unsafe"

	"skyway/internal/klass"
)

// ByteView returns the byte image of the n bytes at a, aliasing the slab:
// writes through the returned slice are heap writes. a and n must be
// word-aligned and in bounds (the caller's chunk was just allocated, so this
// panics on violation exactly like the word accessors). Only a zero-length
// view is nil.
func (h *Heap) ByteView(a Addr, n uint32) []byte {
	if n == 0 {
		return nil
	}
	if uint64(a)&7 != 0 || n%klass.WordSize != 0 {
		panic(fmt.Sprintf("heap: unaligned byte view [%#x, +%d)", uint64(a), n))
	}
	end := uint64(a) + uint64(n)
	if a == Null || end > uint64(len(h.mem)) {
		panic(fmt.Sprintf("heap: byte view [%#x, +%d) outside slab", uint64(a), n))
	}
	return h.mem[a:end:end]
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
