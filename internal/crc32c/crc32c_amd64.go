package crc32c

import "hash/crc32"

// foldConsts holds the kernel's multipliers: for each folding distance d,
// in bits, the pair x^(d+63) mod P and x^(d-1) mod P. Carry-less products
// of bit-reflected operands come out one bit low, hence the 63 and the −1
// in place of 64 and 0. The distances, in order: 2048 (the main loop, four
// 512-bit accumulators), 512 (merging the accumulators) and 384, 256 and
// 128 (merging the four 128-bit lanes of the last).
var foldConsts [5][2]uint64

func init() {
	if !cpuCanFold() {
		return
	}
	for i, d := range [...]int{2048, 512, 384, 256, 128} {
		foldConsts[i] = [2]uint64{xPowMod(d + 63), xPowMod(d - 1)}
	}
	fold = foldAVX512
}

// foldAVX512 is fold on a CPU with AVX-512F and VPCLMULQDQ. The kernel
// works on the CRC register itself, which hash/crc32's convention stores
// inverted.
func foldAVX512(crc uint32, p []byte) uint32 {
	return ^foldZMM(^crc, p, &foldConsts)
}

// xPowMod returns x^n mod P, P the Castagnoli polynomial, as a kernel
// multiplier: bit-reflected, x^0 in bit 63 down to x^31 in bit 32.
func xPowMod(n int) uint64 {
	r := uint32(1 << 31) // x^0
	for range n {
		if r&1 != 0 {
			r = r>>1 ^ crc32.Castagnoli
		} else {
			r >>= 1
		}
	}
	return uint64(r) << 32
}

// cpuCanFold reports whether the CPU has every instruction the kernel uses
// (AVX-512F, VPCLMULQDQ, PCLMULQDQ, AVX and SSE4.2's CRC32) and the
// operating system saves the ZMM and opmask registers across switches.
func cpuCanFold() bool {
	const (
		pclmulqdq  = 1 << 1  // leaf 1, ECX
		sse42      = 1 << 20 // leaf 1, ECX
		osxsave    = 1 << 27 // leaf 1, ECX
		avx        = 1 << 28 // leaf 1, ECX
		avx512f    = 1 << 16 // leaf 7, EBX
		vpclmulqdq = 1 << 10 // leaf 7, ECX
		leaf1      = pclmulqdq | sse42 | osxsave | avx
		// XCR0: SSE, AVX, opmask, ZMM0–15 upper halves, ZMM16–31.
		zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&leaf1 != leaf1 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	_, ebx, ecx, _ := cpuid(7, 0)
	return ebx&avx512f != 0 && ecx&vpclmulqdq != 0
}

// foldZMM returns the CRC register after p, starting from register crc
// (not inverted); len(p) is a non-zero multiple of 256.
//
//go:noescape
func foldZMM(crc uint32, p []byte, k *[5][2]uint64) uint32

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
