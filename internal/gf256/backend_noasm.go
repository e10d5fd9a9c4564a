//go:build !amd64 || purego

package gf256

// Without the amd64 assembly (other architectures, or the purego build
// tag) the chain caps at the portable word kernels; the dispatch constants
// and ECFAULT_BACKEND handling are unchanged, so scalar can still be
// forced for reference runs.

// hwBackend returns the strongest backend this build supports.
func hwBackend() int32 { return backendWord }

// CPUFeatures reports no dispatch-relevant CPU features: the portable
// build never consults CPUID.
func CPUFeatures() []string { return nil }

// simdCompile is a no-op: there are no kernel constants to attach.
func simdCompile(rp *RowPlan) {}

// applyStridedSIMD is unreachable: currentBackend never exceeds
// backendWord here.
func (rp *RowPlan) applyStridedSIMD(ptrs []*byte, strides []int, dst *byte, dstStride, segn, count int, overwrite bool, backend int32) {
	panic("gf256: SIMD backend selected without assembly support")
}
