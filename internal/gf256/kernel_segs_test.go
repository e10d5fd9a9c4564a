package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// refApplySegs is the oracle for the segment-batch entries: one scalar
// per-segment pass through the product tables, mirroring what a caller
// would get from issuing RowPlan.Apply once per segment.
func refApplySegs(coeffs []byte, srcs [][]byte, dst []byte, idx []int32, delta []int32, segLen int, overwrite bool) {
	for _, s := range idx {
		off := int(s) * segLen
		for i := 0; i < segLen; i++ {
			var acc byte
			for j, c := range coeffs {
				if c == 0 {
					continue
				}
				so := off + i
				if delta != nil {
					so += int(delta[j]) * segLen
				}
				acc ^= mulTable[c][srcs[j][so]]
			}
			if overwrite {
				dst[off+i] = acc
			} else {
				dst[off+i] ^= acc
			}
		}
	}
}

// segCase is one ApplySegs layout: an index pattern over a segment space,
// plus per-source deltas.
type segCase struct {
	name  string
	nSegs int     // segment-space size (buffers are nSegs*segLen+pad)
	idx   []int32 // destination segment indices, strictly increasing
	delta []int32 // per-source deltas (padded/truncated to the row width)
}

func segCases() []segCase {
	return []segCase{
		{"single", 4, []int32{2}, nil},
		{"contiguous", 8, []int32{1, 2, 3, 4, 5}, nil},
		{"uniform-stride", 27, []int32{0, 1, 2, 9, 10, 11, 18, 19, 20}, nil},
		{"uniform-stride-delta", 27, []int32{3, 4, 5, 12, 13, 14, 21, 22, 23}, []int32{-3, 0, 3, 0}},
		{"singletons", 16, []int32{0, 3, 6, 9, 12, 15}, nil},
		{"singletons-delta", 16, []int32{1, 4, 7, 10, 13}, []int32{1, -1, 0, 2}},
		{"ragged", 20, []int32{0, 1, 4, 5, 6, 11, 17, 18, 19}, nil},
		{"two-runs", 12, []int32{2, 3, 4, 8, 9, 10}, []int32{0, 1, 0, -2}},
		{"alternating", 10, []int32{0, 2, 4, 6, 8}, nil},
		{"all", 8, []int32{0, 1, 2, 3, 4, 5, 6, 7}, nil},
	}
}

// segLens crosses the word-kernel alignment cases (odd, sub-word), the
// SIMD tail cases (just under/over 32), Clay's typical 4 KiB sub-chunk
// (51), and run sizes straddling stridedMaxRun when multiplied out.
var segLens = []int{1, 3, 7, 8, 31, 32, 33, 51, 64, 200, 513}

func buildSegOperands(rng *rand.Rand, width, nSegs, segLen int) (coeffs []byte, srcs [][]byte, dst []byte) {
	// Leave slack on both sides so negative and positive deltas stay in
	// bounds: sources get 4 segments of margin at each end, reached by
	// slicing into the middle of a larger allocation.
	const margin = 4
	coeffs = make([]byte, width)
	for j := range coeffs {
		coeffs[j] = byte(rng.Intn(256))
	}
	coeffs[rng.Intn(width)] = 0 // always exercise a nil source slot
	srcs = make([][]byte, width)
	for j := range srcs {
		if coeffs[j] == 0 {
			continue
		}
		full := make([]byte, (nSegs+2*margin)*segLen)
		rng.Read(full)
		srcs[j] = full[margin*segLen : (margin+nSegs)*segLen]
	}
	dst = make([]byte, nSegs*segLen)
	rng.Read(dst)
	return coeffs, srcs, dst
}

func TestApplySegsMatchesPerSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range segCases() {
		for _, segLen := range segLens {
			const width = 4
			coeffs, srcs, dst := buildSegOperands(rng, width, tc.nSegs, segLen)
			var delta []int32
			if tc.delta != nil {
				delta = append([]int32(nil), tc.delta[:width]...)
			}
			for _, overwrite := range []bool{false, true} {
				want := append([]byte(nil), dst...)
				refApplySegs(coeffs, srcs, want, tc.idx, delta, segLen, overwrite)
				rp := CompileRow(coeffs)
				eachBackend(t, func(t *testing.T) {
					got := append([]byte(nil), dst...)
					rp.ApplySegs(srcs, got, tc.idx, delta, segLen, overwrite)
					if !bytes.Equal(got, want) {
						t.Fatalf("ApplySegs mismatch: case=%s segLen=%d overwrite=%v backend=%s",
							tc.name, segLen, overwrite, Backend())
					}
				})
			}
		}
	}
}

// TestApplySegsAlignments re-runs a strided layout with the destination and
// sources sliced at every offset 0-7 from an allocation boundary, so the
// word kernels' alignment branches and the SIMD unaligned loads all see
// shifted operands.
func TestApplySegsAlignments(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	idx := []int32{2, 3, 11, 12, 20, 21}
	delta := []int32{0, 2, -2}
	const nSegs, width = 27, 3
	for _, segLen := range []int{16, 51, 33} {
		for align := 0; align < 8; align++ {
			coeffs := []byte{0x1d, 0x02, 0x8e}
			srcs := make([][]byte, width)
			for j := range srcs {
				full := make([]byte, (nSegs+8)*segLen+8)
				rng.Read(full)
				srcs[j] = full[align+4*segLen : align+4*segLen+nSegs*segLen]
			}
			full := make([]byte, nSegs*segLen+8)
			rng.Read(full)
			dst := full[align : align+nSegs*segLen]
			want := append([]byte(nil), dst...)
			refApplySegs(coeffs, srcs, want, idx, delta, segLen, false)
			rp := CompileRow(coeffs)
			eachBackend(t, func(t *testing.T) {
				got := append([]byte(nil), dst...)
				rp.ApplySegs(srcs, got, idx, delta, segLen, false)
				if !bytes.Equal(got, want) {
					t.Fatalf("alignment mismatch: segLen=%d align=%d backend=%s", segLen, align, Backend())
				}
			})
		}
	}
}

func TestApplySegsZeroRow(t *testing.T) {
	coeffs := []byte{0, 0, 0}
	rp := CompileRow(coeffs)
	srcs := make([][]byte, 3)
	dst := bytes.Repeat([]byte{0xaa}, 40)
	idx := []int32{1, 3}
	rp.ApplySegs(srcs, dst, idx, nil, 10, false)
	if !bytes.Equal(dst, bytes.Repeat([]byte{0xaa}, 40)) {
		t.Fatal("accumulate with zero row modified dst")
	}
	rp.ApplySegs(srcs, dst, idx, nil, 10, true)
	for i, b := range dst {
		seg := i / 10
		if seg == 1 || seg == 3 {
			if b != 0 {
				t.Fatalf("overwrite with zero row left byte %d = %#x", i, b)
			}
		} else if b != 0xaa {
			t.Fatalf("overwrite with zero row touched untargeted byte %d", i)
		}
	}
}

// FuzzApplySegs drives random index sets, deltas, widths, and segment
// lengths through every backend against the scalar oracle.
func FuzzApplySegs(f *testing.F) {
	f.Add(int64(1), 8, 51, false)
	f.Add(int64(2), 27, 32, true)
	f.Add(int64(3), 16, 1, false)
	f.Add(int64(4), 40, 33, true)
	f.Fuzz(func(t *testing.T, seed int64, nSegs, segLen int, overwrite bool) {
		const margin = 3
		if nSegs < 2*margin+1 || nSegs > 64 || segLen < 1 || segLen > 600 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		width := 1 + rng.Intn(6)
		coeffs := make([]byte, width)
		for j := range coeffs {
			coeffs[j] = byte(rng.Intn(256))
		}
		// Keep idx inside [margin, nSegs-margin) so every idx+delta stays a
		// valid segment of the shared segment space.
		var idx []int32
		for s := margin; s < nSegs-margin; s++ {
			if rng.Intn(2) == 0 {
				idx = append(idx, int32(s))
			}
		}
		if len(idx) == 0 {
			idx = []int32{int32(margin + rng.Intn(nSegs-2*margin))}
		}
		delta := make([]int32, width)
		for j := range delta {
			delta[j] = int32(rng.Intn(2*margin+1) - margin)
		}
		srcs := make([][]byte, width)
		for j, c := range coeffs {
			if c == 0 {
				continue
			}
			srcs[j] = make([]byte, nSegs*segLen)
			rng.Read(srcs[j])
		}
		dst := make([]byte, nSegs*segLen)
		rng.Read(dst)
		want := append([]byte(nil), dst...)
		refApplySegs(coeffs, srcs, want, idx, delta, segLen, overwrite)
		rp := CompileRow(coeffs)
		eachBackend(t, func(t *testing.T) {
			got := append([]byte(nil), dst...)
			rp.ApplySegs(srcs, got, idx, delta, segLen, overwrite)
			if !bytes.Equal(got, want) {
				t.Fatalf("ApplySegs fuzz mismatch: backend=%s width=%d segLen=%d idx=%v delta=%v",
					Backend(), width, segLen, idx, delta)
			}
		})
	})
}
