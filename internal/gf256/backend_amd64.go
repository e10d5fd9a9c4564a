//go:build amd64 && !purego

package gf256

import "sync"

// Hardware capability probing and the per-coefficient constant tables the
// SIMD row kernels consume. The kernels themselves are in row_amd64.s (ymm)
// and strided_avx512.s (zmm); the split-nibble layout and the affine-matrix
// construction are documented in DESIGN.md ("SIMD backend").

// cpuidAsm executes CPUID with the given leaf/subleaf.
func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbvAsm reads XCR0 (requires OSXSAVE, checked by the caller).
func xgetbvAsm() (eax, edx uint32)

// gfniStridedAsm is the GFNI row kernel: count segments of segn bytes
// (segn >= 32) placed stride bytes apart, every source pointer advancing
// in lockstep with dst; a contiguous range is count = 1. xor != 0
// accumulates into dst, xor == 0 overwrites. srcs points at nsrc segment
// base pointers. Segment remainders below 32 bytes are finished in-asm
// with a masked merge.
//
//go:noescape
func gfniStridedAsm(mats *uint64, srcs **byte, nsrc int, dst *byte, segn int, stride int, count int, xor int)

// avx2StridedAsm is gfniStridedAsm with 64-byte split-nibble tables (low
// 32 bytes: products of the low nibble; high 32: products of the high
// nibble).
//
//go:noescape
func avx2StridedAsm(tbls *byte, srcs **byte, nsrc int, dst *byte, segn int, stride int, count int, xor int)

// gfni512StridedAsm is the zmm row kernel with per-operand geometry:
// count segments of segn bytes, the destination advancing dstride bytes
// per segment and source j advancing strides[j] (0 re-reads the same
// window — virtual zero shards). Segment tails are K-masked, so any
// segn >= 1 stays fully in-kernel. The srcs pointer array is advanced in
// place (clobbered); pointers always stay inside the segment just
// processed, so the array remains GC-safe throughout.
//
//go:noescape
func gfni512StridedAsm(mats *uint64, srcs **byte, strides *int, nsrc int, dst *byte, dstride, segn, count, xor int)

var hwLevel = sync.OnceValue(detectHW)

// hwBackend returns the strongest backend this machine supports.
func hwBackend() int32 { return hwLevel() }

// CPUID leaf 7 / XCR0 feature bits the dispatch chain cares about.
const (
	cpuidAVX2     = 1 << 5  // leaf 7 EBX
	cpuidAVX512F  = 1 << 16 // leaf 7 EBX
	cpuidAVX512DQ = 1 << 17 // leaf 7 EBX
	cpuidAVX512BW = 1 << 30 // leaf 7 EBX
	cpuidGFNI     = 1 << 8  // leaf 7 ECX

	// XCR0: x87+SSE+YMM (the AVX set) and opmask+zmm-hi256+hi16-zmm
	// (the AVX-512 state the OS must context-switch for zmm kernels).
	xcr0YMM = 0x6
	xcr0ZMM = 0xe6
)

func detectHW() int32 {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return backendWord
	}
	_, _, c1, _ := cpuidAsm(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return backendWord
	}
	xlo, _ := xgetbvAsm()
	if xlo&xcr0YMM != xcr0YMM {
		return backendWord // OS does not preserve YMM state
	}
	_, b7, c7, _ := cpuidAsm(7, 0)
	if b7&cpuidAVX2 == 0 {
		return backendWord
	}
	if c7&cpuidGFNI == 0 {
		return backendAVX2
	}
	// The zmm tier needs the EVEX forms: AVX512F for zmm arithmetic,
	// AVX512BW for the byte-granular masked loads/stores (VMOVDQU8 with a
	// K register), AVX512DQ for KMOVQ — plus an OS that saves the opmask
	// and zmm register state (XCR0 bits 5-7 alongside x87/SSE/YMM).
	const avx512 = cpuidAVX512F | cpuidAVX512DQ | cpuidAVX512BW
	if b7&avx512 == avx512 && xlo&xcr0ZMM == xcr0ZMM {
		return backendGFNI512
	}
	// The Go assembler emits the VEX form of VGF2P8AFFINEQB on ymm
	// operands (verified via objdump: C4-prefixed), which needs only
	// GFNI + AVX — no AVX-512 state beyond the YMM save already checked.
	return backendGFNI
}

// CPUFeatures returns the CPU/OS feature flags the kernel dispatch keys
// off, for bench-record metadata and the CI backend matrix: a subset of
// {avx2, gfni, avx512f, avx512dq, avx512bw, os-ymm, os-zmm}.
func CPUFeatures() []string {
	var out []string
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return out
	}
	_, b7, c7, _ := cpuidAsm(7, 0)
	for _, f := range []struct {
		name string
		reg  uint32
		bit  uint32
	}{
		{"avx2", b7, cpuidAVX2},
		{"gfni", c7, cpuidGFNI},
		{"avx512f", b7, cpuidAVX512F},
		{"avx512dq", b7, cpuidAVX512DQ},
		{"avx512bw", b7, cpuidAVX512BW},
	} {
		if f.reg&f.bit != 0 {
			out = append(out, f.name)
		}
	}
	_, _, c1, _ := cpuidAsm(1, 0)
	if c1&(1<<27) != 0 { // OSXSAVE: XGETBV is legal
		xlo, _ := xgetbvAsm()
		if xlo&xcr0YMM == xcr0YMM {
			out = append(out, "os-ymm")
		}
		if xlo&xcr0ZMM == xcr0ZMM {
			out = append(out, "os-zmm")
		}
	}
	return out
}

// Per-coefficient kernel constants, built once the first time a RowPlan is
// compiled with SIMD available. 256 x 64 B nibble tables (16 KiB) plus
// 256 affine matrices (2 KiB); RowPlans reference them by value copy so
// each plan's constants are contiguous for the assembly inner loop.
var (
	simdTablesOnce sync.Once
	nibTables      [256][64]byte
	gfniMats       [256]uint64
)

func buildSIMDTables() {
	for c := 0; c < 256; c++ {
		t := &nibTables[c]
		for i := 0; i < 16; i++ {
			lo := Mul(byte(c), byte(i))
			hi := Mul(byte(c), byte(i<<4))
			// Each 16-byte VPSHUFB table is doubled to span a ymm lane pair.
			t[i], t[16+i] = lo, lo
			t[32+i], t[48+i] = hi, hi
		}
		gfniMats[c] = gfniMatrix(byte(c))
	}
}

// gfniMatrix returns the 8x8 bit matrix M with VGF2P8AFFINEQB(M, x) ==
// Mul(c, x) for every byte x. Per the instruction's semantics, output bit
// i of each byte is the parity of (matrix byte 7-i AND input byte), so
// matrix byte b must hold, at bit j, bit 7-b of c*x^j.
func gfniMatrix(c byte) uint64 {
	var m uint64
	for b := 0; b < 8; b++ {
		var row byte
		for j := 0; j < 8; j++ {
			if Mul(c, 1<<j)>>(7-b)&1 == 1 {
				row |= 1 << j
			}
		}
		m |= uint64(row) << (8 * b)
	}
	return m
}

// simdCompile attaches the per-coefficient kernel constants for the plan's
// non-zero coefficients. Constants are built from the hardware cap, not
// the active backend, so plans compiled while a test override lowers the
// chain still work after SetBackend raises it.
func simdCompile(rp *RowPlan) {
	if hwBackend() < backendAVX2 {
		return
	}
	simdTablesOnce.Do(buildSIMDTables)
	rp.nzTbl = make([]byte, 0, len(rp.nzSrc)*64)
	rp.nzMat = make([]uint64, 0, len(rp.nzSrc))
	for _, j := range rp.nzSrc {
		c := rp.coeffs[j]
		rp.nzTbl = append(rp.nzTbl, nibTables[c][:]...)
		rp.nzMat = append(rp.nzMat, gfniMats[c])
	}
}

// applyStridedSIMD runs the active tier's one row kernel: count segments
// of segn bytes, the destination at dst advancing dstStride per segment and
// ptrs[i], the first segment of the plan's i-th non-zero source, advancing
// strides[i]. The zmm kernel takes any geometry and any segn >= 1; the ymm
// kernels need segn >= 32 and, when count > 1, every stride equal to
// dstStride. The zmm kernel advances ptrs in place.
func (rp *RowPlan) applyStridedSIMD(ptrs []*byte, strides []int, dst *byte, dstStride, segn, count int, overwrite bool, backend int32) {
	xor := 1
	if overwrite {
		xor = 0
	}
	switch backend {
	case backendGFNI512:
		gfni512StridedAsm(&rp.nzMat[0], &ptrs[0], &strides[0], len(ptrs), dst, dstStride, segn, count, xor)
	case backendGFNI:
		gfniStridedAsm(&rp.nzMat[0], &ptrs[0], len(ptrs), dst, segn, dstStride, count, xor)
	default:
		avx2StridedAsm(&rp.nzTbl[0], &ptrs[0], len(ptrs), dst, segn, dstStride, count, xor)
	}
}
