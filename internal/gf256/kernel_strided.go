package gf256

// Strided row kernels.
//
// Sub-packetized codes (Clay) apply the same short coefficient row to many
// small slices at regular offsets: one sub-chunk per plane, with the same
// coupling coefficients in every plane. Issuing one RowPlan.Apply per
// sub-chunk leaves each call too small to amortize the SIMD kernels — at
// ~50 B segments the pointer setup and the call itself cost more than the
// arithmetic. ApplyStrided takes a whole uniformly strided segment set in
// one call and hands it to the tier's row kernel, which walks every
// segment, masked tails included. Each SIMD tier has that one kernel:
// Apply is its one-segment case. Every path computes the same elementwise
// GF(2^8) arithmetic, so results are byte-identical to per-segment Apply
// calls; the conformance suite enforces that across backends.

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
// strides) in single calls. The zmm kernel consumes the geometry
// directly; the ymm kernels take it when all strides agree and segments
// fill a vector; every other case walks per-segment windows through Apply
// — all byte-identical.
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
	if b := currentBackend(); rp.stridedFits(b, dstStride, srcStride, segn) {
		var ptrBuf [32]*byte
		var strideBuf [32]int
		ptrs, strides := ptrBuf[:0], strideBuf[:0]
		if len(rp.nzSrc) > len(ptrBuf) {
			ptrs, strides = make([]*byte, 0, len(rp.nzSrc)), make([]int, 0, len(rp.nzSrc))
		}
		for _, j := range rp.nzSrc {
			so := srcBase[j]
			_ = srcs[j][so+(count-1)*srcStride[j]+segn-1] // bounds-check the span
			ptrs = append(ptrs, &srcs[j][so])
			strides = append(strides, srcStride[j])
		}
		_ = dst[dstBase+(count-1)*dstStride+segn-1]
		rp.applyStridedSIMD(ptrs, strides, &dst[dstBase], dstStride, segn, count, overwrite, b)
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

// stridedFits reports whether backend b's row kernel takes the geometry in
// one call. The zmm kernel takes any; the ymm kernels need a full vector
// per segment and every source advancing in lockstep with the destination.
func (rp *RowPlan) stridedFits(b int32, dstStride int, srcStride []int, segn int) bool {
	switch {
	case b == backendGFNI512:
		return true
	case b < backendAVX2 || segn < 32:
		return false
	}
	for _, j := range rp.nzSrc {
		if srcStride[j] != dstStride {
			return false
		}
	}
	return true
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
