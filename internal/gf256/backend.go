package gf256

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Row-kernel backends, ordered from weakest to strongest. Dispatch picks
// the strongest backend the hardware (and build tags) support, and the
// chain degrades one tier at a time:
// gfni512 -> gfni -> avx2 -> word -> scalar.
//
//   - scalar:  byte-at-a-time product-table loop (the tail path).
//   - word:    pure-Go SWAR bit-plane Horner over 64-bit words.
//   - avx2:    split-nibble VPSHUFB row kernel, 32 bytes per step.
//   - gfni:    VGF2P8AFFINEQB row kernel, one affine multiply per 32 bytes.
//   - gfni512: zmm VGF2P8AFFINEQB, 64-byte strips with K-register masked
//     tails — no overlap window or scalar tail at any segment size.
//
// The amd64 assembly backends live behind the `purego` build tag; building
// with -tags purego (or running on another architecture) caps the chain at
// the word kernels. At runtime the ECFAULT_BACKEND environment variable
// caps the chain without rebuilding:
//
//	ECFAULT_BACKEND=gfni512|gfni|avx2|word|scalar
//
// Unrecognised values fail safe to the portable word kernels. A tier above
// what the hardware supports is a no-op (the hardware cap wins), so
// Backends() under ECFAULT_BACKEND enumerates exactly the forced tier and
// its fallbacks.
const (
	backendScalar int32 = iota
	backendWord
	backendAVX2
	backendGFNI
	backendGFNI512
)

var backendNames = [...]string{"scalar", "word", "avx2", "gfni", "gfni512"}

// activeBackend is the backend RowPlan.Apply dispatches on. It is set in
// init from the hardware cap and ECFAULT_BACKEND, and mutated only by
// SetBackend (tests and benchmarks).
var activeBackend atomic.Int32

// maxBackend is the strongest backend this process may select: the
// hardware cap lowered by the environment override. Backends() and
// SetBackend enumerate from it, so a forced tier bounds what the identity
// sweeps and the CI backend matrix exercise. Written once in init.
var maxBackend int32

func init() {
	maxBackend = capBackend(hwBackend(), os.Getenv("ECFAULT_BACKEND"))
	activeBackend.Store(maxBackend)
}

// backendLevel maps a backend name to its dispatch level.
func backendLevel(name string) (int32, bool) {
	for i, n := range backendNames {
		if n == name {
			return int32(i), true
		}
	}
	return 0, false
}

// capBackend applies the environment cap to the hardware backend.
func capBackend(hw int32, env string) int32 {
	cap := hw
	if env != "" {
		if lvl, ok := backendLevel(env); ok {
			cap = lvl
		} else {
			// Anything unrecognised fails safe to the portable word
			// kernels.
			cap = backendWord
		}
	}
	if cap > hw {
		cap = hw
	}
	return cap
}

// currentBackend returns the backend Apply dispatches on.
func currentBackend() int32 { return activeBackend.Load() }

// Backend returns the name of the active row-kernel backend: "gfni512",
// "gfni", "avx2", "word", or "scalar".
func Backend() string { return backendNames[currentBackend()] }

// Vectorized reports whether the active backend runs vector kernels with
// unaligned loads. Callers that pad or realign buffers purely to keep the
// word kernels on their aligned fast path (Clay's sub-chunk slots) can
// skip that work when this is true.
func Vectorized() bool { return currentBackend() >= backendAVX2 }

// Backends returns the names of every backend available in this build on
// this machine under the current environment cap, strongest first. The
// weaker tiers are always present: they are the fallback chain. Identity
// sweeps and fuzzers enumerate this list, so any new dispatch tier is
// covered automatically.
func Backends() []string {
	out := make([]string, 0, len(backendNames))
	for b := maxBackend; b >= backendScalar; b-- {
		out = append(out, backendNames[b])
	}
	return out
}

// SetBackend forces the named backend and returns a function restoring the
// previous one. It errors if the backend is not available in this build on
// this machine. It is meant for tests and benchmarks comparing tiers; the
// swap is atomic but callers running concurrent kernels should not expect
// a mid-flight Apply to switch over.
func SetBackend(name string) (restore func(), err error) {
	for i, n := range backendNames {
		if n != name {
			continue
		}
		if int32(i) > maxBackend {
			return nil, fmt.Errorf("gf256: backend %q not available (have %q)", name, backendNames[maxBackend])
		}
		prev := activeBackend.Swap(int32(i))
		return func() { activeBackend.Store(prev) }, nil
	}
	return nil, fmt.Errorf("gf256: unknown backend %q", name)
}
