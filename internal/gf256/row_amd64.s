//go:build amd64 && !purego

#include "textflag.h"

// Vectorized GF(2^8) row kernels for the ymm tiers:
//
//	dst[s*stride+i] (^)= XOR_j c_j * srcs[j][s*stride+i]
//
// over count segments of segn bytes (segn >= 32) placed stride bytes
// apart. Every source pointer tracks the destination offset, so segment s
// spans byte offsets [s*stride, s*stride+segn) of every operand; a
// contiguous range is the count = 1 case. Each segment is walked in
// 64-byte strips, then one 32-byte strip when 32 or more bytes remain;
// the full row sum accumulates in ymm registers, so the destination is
// touched once per strip regardless of row width. A remainder under 32
// bytes is finished in-asm: the row sum is recomputed over the
// overlapping final 32-byte window of the segment and merged under a byte
// mask from tailMask, so only the rem new bytes change and xor mode never
// double-accumulates the overlap. All loads and stores are unaligned
// (VMOVDQU), so callers pass arbitrary shard offsets.
//
// Register plan (both kernels):
//	R8  constant table base (affine matrices / nibble tables)
//	R9  source pointer array base
//	R10 source count
//	DI  destination base
//	R11 segment bytes, R13 stride, R15 remaining segments
//	R14 xor flag (0 = overwrite, else accumulate)
//	R12 current segment base offset, DX segment end offset
//	CX  source index, SI current source pointer
//	Y0/Y1 accumulators, Y9 tail byte mask

// tailMask: loading 32 bytes at offset rem (0 < rem < 32) yields a mask
// whose final rem bytes are 0xFF and the rest 0x00 — exactly the new
// bytes of an overlapping final window ending at the segment boundary.
DATA tailMask<>+0(SB)/8, $0x0000000000000000
DATA tailMask<>+8(SB)/8, $0x0000000000000000
DATA tailMask<>+16(SB)/8, $0x0000000000000000
DATA tailMask<>+24(SB)/8, $0x0000000000000000
DATA tailMask<>+32(SB)/8, $0xffffffffffffffff
DATA tailMask<>+40(SB)/8, $0xffffffffffffffff
DATA tailMask<>+48(SB)/8, $0xffffffffffffffff
DATA tailMask<>+56(SB)/8, $0xffffffffffffffff
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

DATA nibMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibMask<>(SB), RODATA|NOPTR, $32

// func gfniStridedAsm(mats *uint64, srcs **byte, nsrc int, dst *byte, segn int, stride int, count int, xor int)
//
// One VGF2P8AFFINEQB per 32 source bytes: mats[j] is the 8x8 bit matrix of
// multiplication by c_j over the field polynomial 0x11d. BX is the strip
// cursor.
TEXT ·gfniStridedAsm(SB), NOSPLIT, $0-64
	MOVQ mats+0(FP), R8
	MOVQ srcs+8(FP), R9
	MOVQ nsrc+16(FP), R10
	MOVQ dst+24(FP), DI
	MOVQ segn+32(FP), R11
	MOVQ stride+40(FP), R13
	MOVQ count+48(FP), R15
	MOVQ xor+56(FP), R14
	XORQ R12, R12

gfniSSeg:
	TESTQ R15, R15
	JZ    gfniSDone
	LEAQ (R12)(R11*1), DX // segment end offset
	MOVQ R12, BX          // strip cursor

gfniSStrip64:
	LEAQ 64(BX), AX
	CMPQ AX, DX
	JGT  gfniSStrip32
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	XORQ CX, CX

gfniSSrc64:
	VBROADCASTSD (R8)(CX*8), Y2
	MOVQ (R9)(CX*8), SI
	VMOVDQU (SI)(BX*1), Y3
	VMOVDQU 32(SI)(BX*1), Y4
	VGF2P8AFFINEQB $0, Y2, Y3, Y3
	VGF2P8AFFINEQB $0, Y2, Y4, Y4
	VPXOR Y3, Y0, Y0
	VPXOR Y4, Y1, Y1
	INCQ CX
	CMPQ CX, R10
	JLT  gfniSSrc64

	TESTQ R14, R14
	JZ    gfniSStore64
	VPXOR (DI)(BX*1), Y0, Y0
	VPXOR 32(DI)(BX*1), Y1, Y1

gfniSStore64:
	VMOVDQU Y0, (DI)(BX*1)
	VMOVDQU Y1, 32(DI)(BX*1)
	MOVQ AX, BX
	JMP  gfniSStrip64

gfniSStrip32:
	LEAQ 32(BX), AX
	CMPQ AX, DX
	JGT  gfniSTail
	VPXOR Y0, Y0, Y0
	XORQ CX, CX

gfniSSrc32:
	VBROADCASTSD (R8)(CX*8), Y2
	MOVQ (R9)(CX*8), SI
	VMOVDQU (SI)(BX*1), Y3
	VGF2P8AFFINEQB $0, Y2, Y3, Y3
	VPXOR Y3, Y0, Y0
	INCQ CX
	CMPQ CX, R10
	JLT  gfniSSrc32

	TESTQ R14, R14
	JZ    gfniSStore32
	VPXOR (DI)(BX*1), Y0, Y0

gfniSStore32:
	VMOVDQU Y0, (DI)(BX*1)
	MOVQ AX, BX

gfniSTail:
	CMPQ BX, DX
	JGE  gfniSNext
	MOVQ DX, AX
	SUBQ BX, AX             // rem = end - cursor, 0 < rem < 32
	LEAQ tailMask<>(SB), CX
	VMOVDQU (CX)(AX*1), Y9  // 0x00^(32-rem) ++ 0xff^rem
	LEAQ -32(DX), BX        // overlapping final window
	VPXOR Y0, Y0, Y0
	XORQ CX, CX

gfniSTSrc:
	VBROADCASTSD (R8)(CX*8), Y2
	MOVQ (R9)(CX*8), SI
	VMOVDQU (SI)(BX*1), Y3
	VGF2P8AFFINEQB $0, Y2, Y3, Y3
	VPXOR Y3, Y0, Y0
	INCQ CX
	CMPQ CX, R10
	JLT  gfniSTSrc

	VMOVDQU (DI)(BX*1), Y3 // prior destination bytes
	TESTQ R14, R14
	JZ    gfniSTMask
	VPXOR Y3, Y0, Y0

gfniSTMask:
	VPAND  Y9, Y0, Y0 // new bytes of the result
	VPANDN Y3, Y9, Y3 // prior bytes outside the tail
	VPOR   Y3, Y0, Y0
	VMOVDQU Y0, (DI)(BX*1)

gfniSNext:
	ADDQ R13, R12
	DECQ R15
	JMP  gfniSSeg

gfniSDone:
	VZEROUPPER
	RET

// func avx2StridedAsm(tbls *byte, srcs **byte, nsrc int, dst *byte, segn int, stride int, count int, xor int)
//
// ISA-L-style split-nibble scheme: tbls holds 64 bytes per source — the
// 16-entry low-nibble product table doubled across both ymm lanes, then
// the high-nibble table likewise. Each 32 source bytes cost two VPSHUFBs.
// AX is the strip cursor; BX cursors the tables (64 per source) inside
// the source loops; Y8 holds the 0x0f mask.
TEXT ·avx2StridedAsm(SB), NOSPLIT, $0-64
	MOVQ tbls+0(FP), R8
	MOVQ srcs+8(FP), R9
	MOVQ nsrc+16(FP), R10
	MOVQ dst+24(FP), DI
	MOVQ segn+32(FP), R11
	MOVQ stride+40(FP), R13
	MOVQ count+48(FP), R15
	MOVQ xor+56(FP), R14
	VMOVDQU nibMask<>(SB), Y8
	XORQ R12, R12

avx2SSeg:
	TESTQ R15, R15
	JZ    avx2SDone
	LEAQ (R12)(R11*1), DX // segment end offset
	MOVQ R12, AX          // strip cursor

avx2SStrip64:
	LEAQ 64(AX), BX
	CMPQ BX, DX
	JGT  avx2SStrip32
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	XORQ CX, CX
	MOVQ R8, BX

avx2SSrc64:
	VMOVDQU (BX), Y5
	VMOVDQU 32(BX), Y6
	MOVQ (R9)(CX*8), SI
	VMOVDQU (SI)(AX*1), Y2
	VMOVDQU 32(SI)(AX*1), Y3
	VPSRLW $4, Y2, Y4
	VPSRLW $4, Y3, Y7
	VPAND  Y8, Y2, Y2
	VPAND  Y8, Y3, Y3
	VPAND  Y8, Y4, Y4
	VPAND  Y8, Y7, Y7
	VPSHUFB Y2, Y5, Y2
	VPSHUFB Y3, Y5, Y3
	VPSHUFB Y4, Y6, Y4
	VPSHUFB Y7, Y6, Y7
	VPXOR Y4, Y2, Y2
	VPXOR Y7, Y3, Y3
	VPXOR Y2, Y0, Y0
	VPXOR Y3, Y1, Y1
	ADDQ $64, BX
	INCQ CX
	CMPQ CX, R10
	JLT  avx2SSrc64

	TESTQ R14, R14
	JZ    avx2SStore64
	VPXOR (DI)(AX*1), Y0, Y0
	VPXOR 32(DI)(AX*1), Y1, Y1

avx2SStore64:
	VMOVDQU Y0, (DI)(AX*1)
	VMOVDQU Y1, 32(DI)(AX*1)
	ADDQ $64, AX
	JMP  avx2SStrip64

avx2SStrip32:
	LEAQ 32(AX), BX
	CMPQ BX, DX
	JGT  avx2STail
	VPXOR Y0, Y0, Y0
	XORQ CX, CX
	MOVQ R8, BX

avx2SSrc32:
	VMOVDQU (BX), Y5
	VMOVDQU 32(BX), Y6
	MOVQ (R9)(CX*8), SI
	VMOVDQU (SI)(AX*1), Y2
	VPSRLW $4, Y2, Y4
	VPAND  Y8, Y2, Y2
	VPAND  Y8, Y4, Y4
	VPSHUFB Y2, Y5, Y2
	VPSHUFB Y4, Y6, Y4
	VPXOR Y4, Y2, Y2
	VPXOR Y2, Y0, Y0
	ADDQ $64, BX
	INCQ CX
	CMPQ CX, R10
	JLT  avx2SSrc32

	TESTQ R14, R14
	JZ    avx2SStore32
	VPXOR (DI)(AX*1), Y0, Y0

avx2SStore32:
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ $32, AX

avx2STail:
	CMPQ AX, DX
	JGE  avx2SNext
	MOVQ DX, BX
	SUBQ AX, BX             // rem = end - cursor, 0 < rem < 32
	LEAQ tailMask<>(SB), CX
	VMOVDQU (CX)(BX*1), Y9  // 0x00^(32-rem) ++ 0xff^rem
	LEAQ -32(DX), AX        // overlapping final window
	VPXOR Y0, Y0, Y0
	XORQ CX, CX
	MOVQ R8, BX

avx2STSrc:
	VMOVDQU (BX), Y5
	VMOVDQU 32(BX), Y6
	MOVQ (R9)(CX*8), SI
	VMOVDQU (SI)(AX*1), Y2
	VPSRLW $4, Y2, Y4
	VPAND  Y8, Y2, Y2
	VPAND  Y8, Y4, Y4
	VPSHUFB Y2, Y5, Y2
	VPSHUFB Y4, Y6, Y4
	VPXOR Y4, Y2, Y2
	VPXOR Y2, Y0, Y0
	ADDQ $64, BX
	INCQ CX
	CMPQ CX, R10
	JLT  avx2STSrc

	VMOVDQU (DI)(AX*1), Y3 // prior destination bytes
	TESTQ R14, R14
	JZ    avx2STMask
	VPXOR Y3, Y0, Y0

avx2STMask:
	VPAND  Y9, Y0, Y0 // new bytes of the result
	VPANDN Y3, Y9, Y3 // prior bytes outside the tail
	VPOR   Y3, Y0, Y0
	VMOVDQU Y0, (DI)(AX*1)

avx2SNext:
	ADDQ R13, R12
	DECQ R15
	JMP  avx2SSeg

avx2SDone:
	VZEROUPPER
	RET
