// Package crc32c is the one CRC-32C (Castagnoli) function under every
// checksum Skyway puts on the wire: the segments of a Skyway stream
// (internal/core), the frames of the framed layer (internal/framed) and the
// block chunks they carry (internal/transport/tcp).
//
// Update and Checksum equal hash/crc32's with the Castagnoli table bit for
// bit; only their speed differs. On amd64 with AVX-512F and VPCLMULQDQ, an
// input of at least foldMin bytes is folded 256 bytes per iteration with
// carry-less multiplies (Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction", Intel, 2009). On a 2-vCPU
// Xeon (Emerald Rapids) that read a cold 128 MiB at 8.9 GB/s against
// hash/crc32's 5.1, and a warm 1 MiB at 68 against 16. The tail, short
// inputs and every other CPU go to hash/crc32.
package crc32c

import "hash/crc32"

const (
	// foldBlock is what one iteration of the folding kernel consumes.
	foldBlock = 256
	// foldMin is the shortest input handed to the kernel. The gain is in
	// big inputs (at 2 KiB: 40 against 180 ns on the host above); below
	// this every control frame and small segment stays off the 512-bit
	// units and runs as it did before the kernel.
	foldMin = 2048
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fold, where the CPU has the folding kernel, returns the CRC-32C of p
// appended to a message whose CRC-32C is crc; len(p) is a non-zero multiple
// of foldBlock. It is set once, by the package's init, and nil elsewhere.
var fold func(crc uint32, p []byte) uint32

// Update returns the CRC-32C of p appended to a message whose CRC-32C is
// crc: crc32.Update(crc, crc32.MakeTable(crc32.Castagnoli), p).
func Update(crc uint32, p []byte) uint32 {
	if fold != nil && len(p) >= foldMin {
		n := len(p) &^ (foldBlock - 1)
		crc = fold(crc, p[:n])
		p = p[n:]
	}
	return crc32.Update(crc, castagnoli, p)
}

// Checksum returns the CRC-32C of p.
func Checksum(p []byte) uint32 { return Update(0, p) }
