package gf256

// Strided row kernels.
//
// Sub-packetized codes (Clay) apply the same short coefficient row to many
// small slices at regular offsets: one sub-chunk per plane, with the same
// coupling coefficients in every plane. Issuing one RowPlan.Apply per
// sub-chunk leaves each call too small to amortize the SIMD kernels — at
// ~50 B segments the pointer setup, the overlap-tail fixup, and the call
// itself cost more than the arithmetic. ApplyStrided takes a whole
// uniformly strided segment set in one call and hands it to a strided
// assembly kernel that walks every segment, masked-store tails included.
// Every path computes the same elementwise GF(2^8) arithmetic, so results
// are byte-identical to per-segment Apply calls; the conformance suite
// enforces that across backends.

// stridedMaxRun is the segment size (bytes) from which the ymm tiers walk
// per-segment Apply calls instead of their lockstep strided kernels: long
// segments amortize their own call overhead and the contiguous kernels
// use wider strips. The zmm kernel runs the same strip widths as its
// contiguous counterpart with masked tails, so it takes every size.
const stridedMaxRun = 1024

// ApplyStrided applies the plan to count segments of segn bytes where
// every operand carries its own base offset and stride: for s in
// [0, count) and i in [0, segn),
//
//	dst[dstBase+s*dstStride+i] (^)= Σ_j coeffs[j] * srcs[j][srcBase[j]+s*srcStride[j]+i]
//
// A source stride of 0 re-reads the same window for every segment (virtual
// zero shards); destination segments must not overlap (dstStride >= segn),
// and no source window may alias the destination. This is the fully
// general layout entry: Clay's zero-copy repair uses it to combine
// shard-space operands (plane-run strides) with compact scratch (run-width
// strides) in single calls. The zmm strided kernel consumes the geometry
// directly; the ymm tiers fall back to a lockstep strided call when all
// strides agree, and every other case walks per-segment windows — all
// byte-identical.
func (rp *RowPlan) ApplyStrided(srcs [][]byte, dst []byte, dstBase, dstStride int, srcBase, srcStride []int, segn, count int, overwrite bool) {
	if len(srcs) != len(rp.coeffs) {
		panic("gf256: RowPlan source count mismatch")
	}
	if len(srcBase) != len(srcs) || len(srcStride) != len(srcs) {
		panic("gf256: RowPlan stride geometry mismatch")
	}
	if segn <= 0 || count <= 0 {
		return
	}
	if count > 1 && dstStride < segn {
		panic("gf256: strided segments overlap")
	}
	for _, j := range rp.nzSrc {
		if srcStride[j] < 0 {
			panic("gf256: negative source stride")
		}
	}
	if rp.maxBit < 0 { // zero row
		if overwrite {
			for s := 0; s < count; s++ {
				off := dstBase + s*dstStride
				clear(dst[off : off+segn])
			}
		}
		return
	}
	if count == 1 {
		rp.applyWindowAt(srcs, dst, dstBase, srcBase, segn, overwrite)
		return
	}
	if b := currentBackend(); b >= backendAVX2 &&
		rp.applyStridedSIMD(srcs, dst, dstBase, dstStride, srcBase, srcStride, segn, count, overwrite, b) {
		return
	}
	var offBuf [16]int
	var offs []int
	if len(srcs) <= len(offBuf) {
		offs = offBuf[:len(srcs)]
	} else {
		offs = make([]int, len(srcs))
	}
	for s := 0; s < count; s++ {
		for _, j := range rp.nzSrc {
			offs[j] = srcBase[j] + s*srcStride[j]
		}
		rp.applyWindowAt(srcs, dst, dstBase+s*dstStride, offs, segn, overwrite)
	}
}

// applyWindowAt runs Apply over one n-byte window with per-source absolute
// byte offsets. Building explicit window slices (rather than passing
// off/end through Apply) is what lets every operand sit at its own offset.
func (rp *RowPlan) applyWindowAt(srcs [][]byte, dst []byte, dstOff int, srcOff []int, n int, overwrite bool) {
	var winBuf [16][]byte
	var wins [][]byte
	if len(srcs) <= len(winBuf) {
		wins = winBuf[:len(srcs)]
	} else {
		wins = make([][]byte, len(srcs))
	}
	for _, j := range rp.nzSrc {
		so := srcOff[j]
		wins[j] = srcs[j][so : so+n : so+n]
	}
	rp.Apply(wins, dst[dstOff:dstOff+n:dstOff+n], 0, n, overwrite)
}
