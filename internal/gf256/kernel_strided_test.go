package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// refApplyStrided is the scalar oracle for ApplyStrided: per segment, per
// byte, straight Mul/XOR arithmetic — independent of every kernel path.
func refApplyStrided(coeffs []byte, srcs [][]byte, dst []byte, dstBase, dstStride int, srcBase, srcStride []int, segn, count int, overwrite bool) {
	for s := 0; s < count; s++ {
		for i := 0; i < segn; i++ {
			var acc byte
			for j, c := range coeffs {
				if c == 0 {
					continue
				}
				acc ^= Mul(c, srcs[j][srcBase[j]+s*srcStride[j]+i])
			}
			d := dstBase + s*dstStride + i
			if overwrite {
				dst[d] = acc
			} else {
				dst[d] ^= acc
			}
		}
	}
}

// stridedCase is one ApplyStrided geometry: per-source strides may differ
// from the destination stride and from each other, and may be zero.
type stridedCase struct {
	segn, count int
	dstStride   int
	srcStrideOf func(j int) int
	dstBase     int
	srcBaseOf   func(j int) int
}

func stridedCases() []stridedCase {
	id := func(v int) func(int) int { return func(int) int { return v } }
	return []stridedCase{
		{segn: 1, count: 7, dstStride: 3, srcStrideOf: id(5), dstBase: 0, srcBaseOf: id(2)},
		{segn: 3, count: 4, dstStride: 3, srcStrideOf: id(9), dstBase: 1, srcBaseOf: id(0)},
		{segn: 31, count: 3, dstStride: 40, srcStrideOf: id(40), dstBase: 5, srcBaseOf: id(3)},
		{segn: 32, count: 5, dstStride: 32, srcStrideOf: id(64), dstBase: 0, srcBaseOf: id(7)},
		{segn: 33, count: 4, dstStride: 50, srcStrideOf: id(0), dstBase: 2, srcBaseOf: id(11)},
		{segn: 64, count: 3, dstStride: 100, srcStrideOf: id(100), dstBase: 0, srcBaseOf: id(0)},
		{segn: 65, count: 3, dstStride: 65, srcStrideOf: func(j int) int { return 65 + 13*j }, dstBase: 3, srcBaseOf: func(j int) int { return j }},
		{segn: 100, count: 2, dstStride: 128, srcStrideOf: id(256), dstBase: 9, srcBaseOf: id(1)},
		{segn: 513, count: 3, dstStride: 600, srcStrideOf: id(520), dstBase: 0, srcBaseOf: id(5)},
		{segn: 1025, count: 2, dstStride: 1025, srcStrideOf: id(2048), dstBase: 1, srcBaseOf: id(0)},
		{segn: 4095, count: 2, dstStride: 4100, srcStrideOf: id(4096), dstBase: 0, srcBaseOf: id(3)},
		// Lockstep (every source stride equals dstStride): the ymm
		// kernels' geometry, through their 64-byte strips, lone 32-byte
		// strip and masked tail, at and above 1 KiB segments.
		{segn: 96, count: 3, dstStride: 100, srcStrideOf: id(100), dstBase: 1, srcBaseOf: id(3)},
		{segn: 127, count: 3, dstStride: 127, srcStrideOf: id(127), dstBase: 0, srcBaseOf: id(5)},
		{segn: 1024, count: 2, dstStride: 1030, srcStrideOf: id(1030), dstBase: 2, srcBaseOf: id(0)},
		{segn: 1025, count: 3, dstStride: 1025, srcStrideOf: id(1025), dstBase: 0, srcBaseOf: id(7)},
		{segn: 4095, count: 2, dstStride: 4095, srcStrideOf: id(4095), dstBase: 3, srcBaseOf: id(1)},
	}
}

// TestApplyStridedIdentity checks ApplyStrided against the scalar oracle
// on every available backend, over geometries that exercise the zmm
// multi-stride kernel, the ymm lockstep path (all strides equal) from one
// vector to 4 KiB segments, zero strides, and the per-segment window
// fallback.
func TestApplyStridedIdentity(t *testing.T) {
	rows := [][]byte{
		{2},
		{0, 0},
		{1, 2},
		{0x8e, 0x1d},
		{7, 0, 113, 214, 0xaa},
	}
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			forceBackend(t, backend)
			rng := rand.New(rand.NewSource(42))
			for _, coeffs := range rows {
				rp := CompileRow(coeffs)
				for _, tc := range stridedCases() {
					for _, overwrite := range []bool{false, true} {
						checkApplyStrided(t, rng, rp, coeffs, tc, overwrite)
					}
				}
			}
		})
	}
}

func checkApplyStrided(t *testing.T, rng *rand.Rand, rp *RowPlan, coeffs []byte, tc stridedCase, overwrite bool) {
	t.Helper()
	srcs := make([][]byte, len(coeffs))
	srcBase := make([]int, len(coeffs))
	srcStride := make([]int, len(coeffs))
	for j := range srcs {
		srcBase[j] = tc.srcBaseOf(j)
		srcStride[j] = tc.srcStrideOf(j)
		n := srcBase[j] + (tc.count-1)*srcStride[j] + tc.segn
		srcs[j] = make([]byte, n)
		rng.Read(srcs[j])
	}
	dn := tc.dstBase + (tc.count-1)*tc.dstStride + tc.segn
	dst := make([]byte, dn)
	rng.Read(dst)
	want := append([]byte(nil), dst...)

	refApplyStrided(coeffs, srcs, want, tc.dstBase, tc.dstStride, srcBase, srcStride, tc.segn, tc.count, overwrite)
	rp.ApplyStrided(srcs, dst, tc.dstBase, tc.dstStride, srcBase, srcStride, tc.segn, tc.count, overwrite)
	if !bytes.Equal(dst, want) {
		t.Fatalf("ApplyStrided mismatch: coeffs=%v segn=%d count=%d dstStride=%d overwrite=%v",
			coeffs, tc.segn, tc.count, tc.dstStride, overwrite)
	}
}

// FuzzApplyStrided fuzzes the geometry across every backend in the
// dispatch chain; any mismatch against the scalar oracle fails.
func FuzzApplyStrided(f *testing.F) {
	f.Add(uint16(3), uint8(2), uint8(1), uint8(4), int64(1))
	f.Add(uint16(64), uint8(3), uint8(0), uint8(9), int64(2))
	f.Add(uint16(600), uint8(4), uint8(7), uint8(2), int64(3))
	f.Fuzz(func(t *testing.T, segn16 uint16, count8, pad8, width8 uint8, seed int64) {
		segn := int(segn16)%1200 + 1
		count := int(count8)%5 + 1
		pad := int(pad8) % 64
		width := int(width8)%4 + 1
		rng := rand.New(rand.NewSource(seed))
		coeffs := make([]byte, width)
		rng.Read(coeffs)
		rp := CompileRow(coeffs)
		dstStride := segn + pad
		srcBase := make([]int, width)
		srcStride := make([]int, width)
		srcs := make([][]byte, width)
		for j := range srcs {
			srcBase[j] = rng.Intn(8)
			srcStride[j] = rng.Intn(3) * (segn + rng.Intn(64)) // 0, or >= segn
			srcs[j] = make([]byte, srcBase[j]+(count-1)*srcStride[j]+segn)
			rng.Read(srcs[j])
		}
		dst := make([]byte, (count-1)*dstStride+segn)
		rng.Read(dst)
		want := append([]byte(nil), dst...)
		refApplyStrided(coeffs, srcs, want, 0, dstStride, srcBase, srcStride, segn, count, false)
		for _, backend := range Backends() {
			restore, err := SetBackend(backend)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(dst))
			copy(got, dst)
			rp.ApplyStrided(srcs, got, 0, dstStride, srcBase, srcStride, segn, count, false)
			restore()
			if !bytes.Equal(got, want) {
				t.Fatalf("backend %s: ApplyStrided mismatch (segn=%d count=%d)", backend, segn, count)
			}
		}
	})
}
