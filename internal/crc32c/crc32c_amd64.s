#include "textflag.h"

// func foldZMM(crc uint32, p []byte, k *[5][2]uint64) uint32
//
// Folds p, 256 bytes per iteration, in four ZMM accumulators Z0–Z3 (bytes
// 0–63, 64–127, 128–191 and 192–255 of each block). Folding a 128-bit lane
// A = A_hi·x^64 + A_lo forward by d bits replaces it with
// A_hi·(x^(d+64) mod P) + A_lo·(x^d mod P), two carry-less multiplies, and
// XORs it into the lane d bits on. The 128 bits left at the end are the
// message whose CRC is p's; two CRC32Q give it.
TEXT ·foldZMM(SB), NOSPLIT, $0-44
	MOVL crc+0(FP), AX
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX
	MOVQ k+32(FP), DX

	// The first block seeds the accumulators, the register XORed into its
	// first four bytes.
	VMOVD     AX, X4
	VPXORD    (SI), Z4, Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VBROADCASTI32X4 (DX), Z4
	ADDQ $256, SI
	SUBQ $256, CX
	JZ   merge

loop:
	VPCLMULQDQ $0x00, Z4, Z0, Z5
	VPCLMULQDQ $0x11, Z4, Z0, Z0
	VPTERNLOGD $0x96, (SI), Z5, Z0
	VPCLMULQDQ $0x00, Z4, Z1, Z6
	VPCLMULQDQ $0x11, Z4, Z1, Z1
	VPTERNLOGD $0x96, 64(SI), Z6, Z1
	VPCLMULQDQ $0x00, Z4, Z2, Z7
	VPCLMULQDQ $0x11, Z4, Z2, Z2
	VPTERNLOGD $0x96, 128(SI), Z7, Z2
	VPCLMULQDQ $0x00, Z4, Z3, Z8
	VPCLMULQDQ $0x11, Z4, Z3, Z3
	VPTERNLOGD $0x96, 192(SI), Z8, Z3
	ADDQ $256, SI
	SUBQ $256, CX
	JNZ  loop

merge:
	// Z0·x^1536 + Z1·x^1024 + Z2·x^512 + Z3, by Horner's rule at 512 bits.
	VBROADCASTI32X4 16(DX), Z4
	VPCLMULQDQ $0x00, Z4, Z0, Z5
	VPCLMULQDQ $0x11, Z4, Z0, Z6
	VPTERNLOGD $0x96, Z5, Z6, Z1
	VPCLMULQDQ $0x00, Z4, Z1, Z5
	VPCLMULQDQ $0x11, Z4, Z1, Z6
	VPTERNLOGD $0x96, Z5, Z6, Z2
	VPCLMULQDQ $0x00, Z4, Z2, Z5
	VPCLMULQDQ $0x11, Z4, Z2, Z6
	VPTERNLOGD $0x96, Z5, Z6, Z3

	// Z3's lanes L0–L3 (X3 is L0): L0·x^384 + L1·x^256 + L2·x^128 + L3.
	VEXTRACTI32X4 $1, Z3, X1
	VEXTRACTI32X4 $2, Z3, X2
	VEXTRACTI32X4 $3, Z3, X0
	VMOVDQU    32(DX), X4
	VPCLMULQDQ $0x00, X4, X3, X5
	VPCLMULQDQ $0x11, X4, X3, X6
	VPXOR      X5, X0, X0
	VPXOR      X6, X0, X0
	VMOVDQU    48(DX), X4
	VPCLMULQDQ $0x00, X4, X1, X5
	VPCLMULQDQ $0x11, X4, X1, X6
	VPXOR      X5, X0, X0
	VPXOR      X6, X0, X0
	VMOVDQU    64(DX), X4
	VPCLMULQDQ $0x00, X4, X2, X5
	VPCLMULQDQ $0x11, X4, X2, X6
	VPXOR      X5, X0, X0
	VPXOR      X6, X0, X0

	// The register after the last 128 bits, from zero, is x^32·X0 mod P.
	VMOVQ   X0, AX
	VPEXTRQ $1, X0, BX
	XORL    CX, CX
	CRC32Q  AX, CX
	CRC32Q  BX, CX
	VZEROUPPER
	MOVL CX, ret+40(FP)
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
