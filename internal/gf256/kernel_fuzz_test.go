package gf256

import (
	"bytes"
	"testing"
)

// refMulAdd is the oracle for the fuzzers below: dst[i] ^= c*src[i] using
// the bit-by-bit refMul from gf256_test.go, fully independent of the
// product tables and the word kernels.
func refMulAdd(c byte, src, dst []byte) {
	for i, s := range src {
		dst[i] ^= refMul(c, s)
	}
}

// eachBackend runs fn under every available backend (SIMD tiers included
// when the hardware has them), so one fuzz execution cross-checks the
// whole dispatch chain against the oracle.
func eachBackend(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, backend := range Backends() {
		restore, err := SetBackend(backend)
		if err != nil {
			t.Fatal(err)
		}
		fn(t)
		restore()
	}
}

// FuzzMulAddSliceKernel checks MulAddSlice (table loop plus the c=0/1 fast
// paths) against the bit-by-bit oracle for arbitrary coefficients,
// payloads, and lengths, on every backend.
func FuzzMulAddSliceKernel(f *testing.F) {
	f.Add(byte(2), []byte("hello, erasure coding world"))
	f.Add(byte(0), []byte{1, 2, 3})
	f.Add(byte(1), []byte{0xff})
	f.Add(byte(0x8e), bytes.Repeat([]byte{0xa5, 0x3c}, 33))
	f.Fuzz(func(t *testing.T, c byte, src []byte) {
		eachBackend(t, func(t *testing.T) {
			dst := make([]byte, len(src))
			for i := range dst {
				dst[i] = byte(i*7 + 13)
			}
			want := append([]byte(nil), dst...)
			refMulAdd(c, src, want)
			MulAddSlice(c, src, dst)
			if !bytes.Equal(dst, want) {
				t.Fatalf("MulAddSlice(c=%#x, len=%d, backend=%s) diverges from reference", c, len(src), Backend())
			}
		})
	})
}

// FuzzMulSliceKernel checks MulSlice against the bit-by-bit oracle.
func FuzzMulSliceKernel(f *testing.F) {
	f.Add(byte(3), []byte("0123456789abcdef-tail"))
	f.Add(byte(0), []byte{9})
	f.Fuzz(func(t *testing.T, c byte, src []byte) {
		dst := make([]byte, len(src))
		want := make([]byte, len(src))
		for i, s := range src {
			want[i] = refMul(c, s)
		}
		MulSlice(c, src, dst)
		if !bytes.Equal(dst, want) {
			t.Fatalf("MulSlice(c=%#x, len=%d) diverges from reference", c, len(src))
		}
	})
}

// FuzzMulAddRow checks the bit-plane Horner row kernel against a loop of
// bit-by-bit reference multiply-accumulates. The fuzzer drives the
// coefficients and one payload; the remaining sources are deterministic
// permutations of it, so the row width varies with the coefficient count
// and the payload length exercises non-8-byte-aligned tails.
func FuzzMulAddRow(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0x53}, []byte("a moderately sized source shard payload"))
	f.Add([]byte{1}, []byte{})
	f.Add([]byte{0xff, 0xfe}, bytes.Repeat([]byte{0x11}, 71))
	f.Fuzz(func(t *testing.T, coeffs, src []byte) {
		if len(coeffs) > 64 {
			coeffs = coeffs[:64]
		}
		srcs := make([][]byte, len(coeffs))
		for j := range srcs {
			s := make([]byte, len(src))
			for i, b := range src {
				s[i] = b ^ byte(j*31+i)
			}
			srcs[j] = s
		}
		want := make([]byte, len(src))
		for i := range want {
			want[i] = byte(i * 3)
		}
		for j, c := range coeffs {
			refMulAdd(c, srcs[j], want)
		}
		eachBackend(t, func(t *testing.T) {
			dst := make([]byte, len(src))
			for i := range dst {
				dst[i] = byte(i * 3)
			}
			CompileRow(coeffs).MulAdd(srcs, dst)
			if !bytes.Equal(dst, want) {
				t.Fatalf("row MulAdd(%d coeffs, len=%d, backend=%s) diverges from reference", len(coeffs), len(src), Backend())
			}
		})
	})
}

// FuzzRowPlanRanges checks that a RowPlan applied as two disjoint Apply
// ranges split at an arbitrary (not word-aligned) boundary is
// byte-identical to one serial pass, in both accumulate and overwrite
// modes. This is the property the parallel stripe executor relies on when
// it fans bands out to workers.
func FuzzRowPlanRanges(f *testing.F) {
	f.Add([]byte{2, 3, 0, 9}, []byte("split me at an odd boundary please"), uint16(5))
	f.Add([]byte{1, 1}, bytes.Repeat([]byte{0x77}, 40), uint16(17))
	f.Fuzz(func(t *testing.T, coeffs, src []byte, cutRaw uint16) {
		if len(coeffs) > 32 {
			coeffs = coeffs[:32]
		}
		srcs := make([][]byte, len(coeffs))
		for j := range srcs {
			s := make([]byte, len(src))
			for i, b := range src {
				s[i] = b ^ byte(j*89+i*5)
			}
			srcs[j] = s
		}
		rp := CompileRow(coeffs)
		for _, overwrite := range []bool{false, true} {
			serial := make([]byte, len(src))
			split := make([]byte, len(src))
			for i := range serial {
				serial[i] = byte(i*11 + 1)
				split[i] = serial[i]
			}
			rp.Apply(srcs, serial, 0, len(serial), overwrite)
			cut := 0
			if len(src) > 0 {
				cut = int(cutRaw) % (len(src) + 1)
			}
			rp.Apply(srcs, split, 0, cut, overwrite)
			rp.Apply(srcs, split, cut, len(split), overwrite)
			if !bytes.Equal(serial, split) {
				t.Fatalf("split Apply at %d (overwrite=%v, len=%d) diverges from serial pass", cut, overwrite, len(src))
			}
		}
	})
}

// TestRowPlanUnalignedOperands drives Apply through the head/tail
// alignment fixups and, on the word tier, the scalar fallback that
// misaligned operands take: sources offset by every sub-word amount, the
// destination offset with them or left aligned (one misaligned source is
// enough to leave the word kernels), at lengths around band boundaries
// and between 1 and 2 KiB, on every backend. The lengths around 32, 64
// and 128 bytes reach each part of the SIMD kernels' one-segment call:
// the 64- and 128-byte strips, the lone 32-byte strip, the masked tail,
// and the scalar tail below one ymm vector.
func TestRowPlanUnalignedOperands(t *testing.T) {
	coeffs := []byte{2, 0, 1, 0x8e, 0xfd}
	eachBackend(t, func(t *testing.T) {
		for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 95, 96, 97, 127, 128, 129, 1024, 1500, 2048, 2055, 4096 + 5} {
			for shift := 0; shift < 8; shift++ {
				for _, dstShift := range []int{shift, 0} {
					srcs := make([][]byte, len(coeffs))
					for j := range srcs {
						backing := make([]byte, n+shift)
						for i := range backing {
							backing[i] = byte(i*13 + j*7 + 5)
						}
						srcs[j] = backing[shift:]
					}
					backing := make([]byte, n+dstShift)
					for i := range backing {
						backing[i] = byte(i * 29)
					}
					dst := backing[dstShift:]
					want := append([]byte(nil), dst...)
					for j, c := range coeffs {
						refMulAdd(c, srcs[j], want)
					}
					CompileRow(coeffs).MulAdd(srcs, dst)
					if !bytes.Equal(dst, want) {
						t.Fatalf("backend=%s n=%d shift=%d dstShift=%d: row MulAdd diverges from reference", Backend(), n, shift, dstShift)
					}
				}
			}
		}
	})
}
