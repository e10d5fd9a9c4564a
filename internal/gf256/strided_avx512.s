//go:build amd64 && !purego

#include "textflag.h"

// AVX-512 GFNI row kernel, the zmm tier's only one, with per-operand
// geometry: count segments of segn bytes; after each segment the
// destination pointer advances dstride bytes and source pointer j advances
// strides[j] bytes (a zero stride re-reads the same window — virtual zero
// shards, or a compact buffer walked at a different pace than the shard
// space). A contiguous range is the count = 1 case. The segment interior
// runs in full 64-byte zmm strips, two at a time; the segn % 64 tail is
// finished with K-masked loads and a masked store, computed once per call
// since segn is uniform. Masked-off source bytes load as zero, and
// affine(M, 0) == 0, so they add nothing. Any segn >= 1 therefore stays
// fully in-kernel.
//
// The source pointer array is advanced in place and left clobbered.
// Pointers are only advanced while further segments remain, so every
// element always points inside a segment the caller bounds-checked —
// never one-past-the-end — keeping the array safe under GC stack scans.
//
// Register plan:
//	R8  affine matrix array base
//	R9  source pointer array base (elements advanced in place)
//	R10 source stride array base
//	R11 source count
//	DI  current destination segment base
//	BX  destination stride
//	DX  segment bytes (segn)
//	R13 segn &^ 63 (bytes covered by full strips)
//	R15 segments remaining
//	R14 xor flag (0 = overwrite, else accumulate)
//	R12 offset within segment, CX source index, SI source pointer
//	K1  tail byte mask: (1 << (segn & 63)) - 1
//	Z0/Z1 accumulators, Z2 broadcast matrix, Z3/Z4 source data

// func gfni512StridedAsm(mats *uint64, srcs **byte, strides *int, nsrc int, dst *byte, dstride, segn, count, xor int)
TEXT ·gfni512StridedAsm(SB), NOSPLIT, $0-72
	MOVQ mats+0(FP), R8
	MOVQ srcs+8(FP), R9
	MOVQ strides+16(FP), R10
	MOVQ nsrc+24(FP), R11
	MOVQ dst+32(FP), DI
	MOVQ dstride+40(FP), BX
	MOVQ segn+48(FP), DX
	MOVQ count+56(FP), R15
	MOVQ xor+64(FP), R14

	MOVQ  DX, CX
	ANDQ  $63, CX
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVQ AX, K1         // (1<<(segn%64))-1: in-segment tail byte mask
	MOVQ  DX, R13
	ANDQ  $-64, R13

	TESTQ R15, R15
	JZ    s512Done

s512Seg:
	XORQ R12, R12

s512Strip128:
	LEAQ 128(R12), AX
	CMPQ AX, R13
	JGT  s512Strip64
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	XORQ   CX, CX

s512Src128:
	MOVQ (R9)(CX*8), SI
	VBROADCASTSD (R8)(CX*8), Z2
	VMOVDQU64 (SI)(R12*1), Z3
	VMOVDQU64 64(SI)(R12*1), Z4
	VGF2P8AFFINEQB $0, Z2, Z3, Z3
	VGF2P8AFFINEQB $0, Z2, Z4, Z4
	VPXORQ Z3, Z0, Z0
	VPXORQ Z4, Z1, Z1
	INCQ CX
	CMPQ CX, R11
	JLT  s512Src128

	TESTQ R14, R14
	JZ    s512Store128
	VPXORQ (DI)(R12*1), Z0, Z0
	VPXORQ 64(DI)(R12*1), Z1, Z1

s512Store128:
	VMOVDQU64 Z0, (DI)(R12*1)
	VMOVDQU64 Z1, 64(DI)(R12*1)
	ADDQ $128, R12
	JMP  s512Strip128

s512Strip64:
	CMPQ R12, R13
	JGE  s512Tail
	VPXORQ Z0, Z0, Z0
	XORQ   CX, CX

s512Src64:
	MOVQ (R9)(CX*8), SI
	VBROADCASTSD (R8)(CX*8), Z2
	VMOVDQU64 (SI)(R12*1), Z3
	VGF2P8AFFINEQB $0, Z2, Z3, Z3
	VPXORQ Z3, Z0, Z0
	INCQ CX
	CMPQ CX, R11
	JLT  s512Src64

	TESTQ R14, R14
	JZ    s512Store64
	VPXORQ (DI)(R12*1), Z0, Z0

s512Store64:
	VMOVDQU64 Z0, (DI)(R12*1)
	ADDQ $64, R12

s512Tail:
	CMPQ R12, DX
	JGE  s512Next
	VPXORQ Z0, Z0, Z0
	XORQ   CX, CX

s512SrcTail:
	MOVQ (R9)(CX*8), SI
	VBROADCASTSD (R8)(CX*8), Z2
	VMOVDQU8.Z (SI)(R12*1), K1, Z3
	VGF2P8AFFINEQB $0, Z2, Z3, Z3
	VPXORQ Z3, Z0, Z0
	INCQ CX
	CMPQ CX, R11
	JLT  s512SrcTail

	TESTQ R14, R14
	JZ    s512StoreTail
	VMOVDQU8.Z (DI)(R12*1), K1, Z4
	VPXORQ Z4, Z0, Z0

s512StoreTail:
	VMOVDQU8 Z0, K1, (DI)(R12*1)

s512Next:
	DECQ R15
	JZ   s512Done
	ADDQ BX, DI
	XORQ CX, CX

s512Adv:
	MOVQ (R10)(CX*8), AX
	ADDQ AX, (R9)(CX*8)
	INCQ CX
	CMPQ CX, R11
	JLT  s512Adv
	JMP  s512Seg

s512Done:
	VZEROUPPER
	RET
