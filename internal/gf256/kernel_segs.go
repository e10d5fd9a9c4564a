package gf256

// Segment-batched row kernels.
//
// Sub-packetized codes (Clay) apply the same short coefficient row to many
// small slices at regular offsets: one sub-chunk per plane, with the same
// coupling coefficients in every plane. Issuing one RowPlan.Apply per
// sub-chunk leaves each call too small to amortize the SIMD kernels — at
// ~50 B segments the pointer setup, the overlap-tail fixup, and the call
// itself cost more than the arithmetic. The entries here batch a whole
// same-coefficient segment set into as few kernel invocations as possible:
//
//   - Adjacent segments coalesce into contiguous runs, each run handled by
//     one ordinary Apply pass (runs of b planes pay one call, not b).
//   - Uniformly strided runs below stridedMaxRun bytes go to a dedicated
//     strided assembly kernel (one call walks every segment, masked-store
//     tails included), so even stride-q plane sets stay fully vectorized.
//
// Segment offsets are expressed in segment-index units (Clay plane
// numbers), with an optional per-source index delta (the coupling
// companion's plane shift). Every path computes the same elementwise
// GF(2^8) arithmetic, so results are byte-identical to per-segment Apply
// calls; the conformance suite enforces that across backends.

// stridedMaxRun is the run size (bytes) above which per-run Apply calls
// beat the strided kernel: long runs amortize their own call overhead and
// the contiguous kernels use wider strips. The zmm kernel runs the same
// strip widths as its contiguous counterpart with masked tails, so its cap
// sits at 4 KiB (stridedMaxRun512).
const (
	stridedMaxRun    = 1024
	stridedMaxRun512 = 4096
)

// stridedRunCap returns the strided-kernel run cap for a backend tier.
func stridedRunCap(b int32) int {
	if b >= backendGFNI512 {
		return stridedMaxRun512
	}
	return stridedMaxRun
}

// stridedMinRun returns the smallest run the tier's strided kernel takes:
// the ymm kernels need a full vector per segment, the zmm kernel's
// K-masked tails handle any size.
func stridedMinRun(b int32) int {
	if b >= backendGFNI512 {
		return 1
	}
	return 32
}

// segRun is a coalesced run of consecutive segments: segment indices
// [start, start+n).
type segRun struct{ start, n int32 }

// MulSegs is ApplySegs with overwrite semantics.
func (rp *RowPlan) MulSegs(srcs [][]byte, dst []byte, idx []int32, delta []int32, segLen int) {
	rp.ApplySegs(srcs, dst, idx, delta, segLen, true)
}

// ApplySegs applies the plan to a batch of equal-length segments. Segment
// index s covers dst[s*segLen : (s+1)*segLen]; source j reads its bytes
// from segment index s+delta[j] of srcs[j]. idx lists the destination
// segment indices in strictly increasing order. The result is
// byte-identical to one Apply per segment; batching only changes how the
// work is grouped into kernel calls.
func (rp *RowPlan) ApplySegs(srcs [][]byte, dst []byte, idx []int32, delta []int32, segLen int, overwrite bool) {
	if len(srcs) != len(rp.coeffs) {
		panic("gf256: RowPlan source count mismatch")
	}
	if delta != nil && len(delta) != len(srcs) {
		panic("gf256: RowPlan delta count mismatch")
	}
	if len(idx) == 0 || segLen <= 0 {
		return
	}
	if rp.maxBit < 0 { // zero row
		if overwrite {
			for _, s := range idx {
				clear(dst[int(s)*segLen : (int(s)+1)*segLen])
			}
		}
		return
	}

	// Coalesce consecutive segment indices into runs, tracking whether
	// the runs form a uniform strided layout on the way.
	var runBuf [48]segRun
	runs := runBuf[:0]
	uniform := true
	for i := 0; i < len(idx); {
		j := i + 1
		for j < len(idx) && idx[j] == idx[j-1]+1 {
			j++
		}
		runs = append(runs, segRun{start: idx[i], n: int32(j - i)})
		if nr := len(runs); nr > 1 {
			if runs[nr-1].n != runs[0].n {
				uniform = false
			} else if nr > 2 && runs[nr-1].start-runs[nr-2].start != runs[1].start-runs[0].start {
				uniform = false
			}
		}
		i = j
	}

	if len(runs) == 1 {
		rp.applyWindow(srcs, dst, int(runs[0].start)*segLen, delta, segLen, int(runs[0].n)*segLen, overwrite)
		return
	}
	if b := currentBackend(); b >= backendAVX2 {
		rb := int(runs[0].n) * segLen
		if uniform && rb >= stridedMinRun(b) && rb < stridedRunCap(b) {
			stride := int(runs[1].start-runs[0].start) * segLen
			rp.stridedSIMD(srcs, dst, int(runs[0].start)*segLen, delta, segLen, rb, stride, len(runs), overwrite, b)
			return
		}
	}
	for _, r := range runs {
		rp.applyWindow(srcs, dst, int(r.start)*segLen, delta, segLen, int(r.n)*segLen, overwrite)
	}
}

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
// byte offsets (applyWindow's generalization from shared segment-index
// deltas to arbitrary operand bases).
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

// applyWindow runs Apply over one contiguous run of n bytes: the
// destination window starts at byte offset off, and source j's window at
// off + delta[j]*segLen. Building explicit window slices (rather than
// passing off/end through Apply) is what lets sources sit at shifted,
// possibly negative, segment deltas.
func (rp *RowPlan) applyWindow(srcs [][]byte, dst []byte, off int, delta []int32, segLen, n int, overwrite bool) {
	var winBuf [16][]byte
	var wins [][]byte
	if len(srcs) <= len(winBuf) {
		wins = winBuf[:len(srcs)]
	} else {
		wins = make([][]byte, len(srcs))
	}
	for _, j := range rp.nzSrc {
		so := off
		if delta != nil {
			so += int(delta[j]) * segLen
		}
		wins[j] = srcs[j][so : so+n : so+n]
	}
	rp.Apply(wins, dst[off:off+n:off+n], 0, n, overwrite)
}
