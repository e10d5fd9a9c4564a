package gf256

import (
	"fmt"
	"testing"
)

// BenchmarkMulAddSliceSizes compares the word kernel on the
// single-coefficient path (one source into one destination).
func BenchmarkMulAddSliceSizes(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10, 1 << 20} {
		src := make([]byte, size)
		dst := make([]byte, size)
		for i := range src {
			src[i] = byte(i)
		}
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				MulAddSlice(0x53, src, dst)
			}
		})
	}
}

// BenchmarkMulAddRow measures the fused row kernel at the RS(12,9) shape:
// nine sources accumulated into one destination.
func BenchmarkMulAddRow(b *testing.B) {
	coeffs := make([]byte, 9)
	for j := range coeffs {
		coeffs[j] = byte(2 + j*17)
	}
	for _, size := range []int{4 << 10, 64 << 10, 1 << 20} {
		srcs := make([][]byte, len(coeffs))
		for j := range srcs {
			srcs[j] = make([]byte, size)
			for i := range srcs[j] {
				srcs[j][i] = byte(i * (j + 3))
			}
		}
		dst := make([]byte, size)
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			b.SetBytes(int64(size * len(coeffs)))
			for i := 0; i < b.N; i++ {
				CompileRow(coeffs).MulAdd(srcs, dst)
			}
		})
	}
}
