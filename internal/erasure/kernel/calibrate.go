package kernel

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/gf256"
	"repro/internal/parallel"
)

// Program chunking was originally tuned by hand for one core (16 KiB
// chunks, 64 KiB parallel threshold). The first Run now derives both
// from the machine — a one-shot microprobe times the active gf256 backend
// at candidate chunk sizes and measures worker-pool handoff, and
// runtime.NumCPU scales the parallel threshold. The choice never affects
// output bytes — every chunking or split of a run is byte-identical by
// construction — only throughput.
const (
	defaultChunkBytes = 16 << 10

	minChunkBytes = 4 << 10
	maxChunkBytes = 256 << 10

	minParallelThreshold = 32 << 10
	maxParallelThreshold = 8 << 20
)

// tuned is the calibrated pair: stripe chunk bytes and the rows*stripe
// work floor for Program.Run fan-out.
type tuned struct {
	chunkBytes        int
	parallelThreshold int
}

// tuning returns the calibrated pair, probing on first use.
var tuning = sync.OnceValue(func() tuned { return probeTuning(runtime.NumCPU()) })

// Tuning exposes the calibrated chunk size and threshold (tests and
// `ecbench -backends` diagnostics; the hot path uses the internal
// accessor). The third value is always 0: bench/ecperf/host.go still reads
// three, and the next benchmark PR (ROADMAP 1a) removes it.
func Tuning() (chunkBytes, parallelThreshold, _ int) {
	t := tuning()
	return t.chunkBytes, t.parallelThreshold, 0
}

// probeTuning times a representative program (three parity rows over nine
// sources, the paper's RS(12,9) shape) across candidate chunk sizes and
// picks the fastest, then prices worker handoff to place the parallel
// threshold. Total budget is a few milliseconds, paid once per process.
func probeTuning(ncpu int) tuned {
	const stripe = 128 << 10
	const width, rows = 9, 3
	srcs := make([][]byte, width)
	for j := range srcs {
		srcs[j] = make([]byte, stripe)
		for i := range srcs[j] {
			srcs[j][i] = byte(i*31 + j*7 + 1)
		}
	}
	dsts := make([][]byte, rows)
	rowCoeffs := make([][]byte, rows)
	for i := range dsts {
		dsts[i] = make([]byte, stripe)
		row := make([]byte, width)
		for j := range row {
			row[j] = gf256.Exp(i*width + j)
		}
		rowCoeffs[i] = row
	}
	prog := Compile(rowCoeffs)

	chunk := defaultChunkBytes
	best := time.Duration(1<<63 - 1)
	var bestBytesPerNs float64
	for _, cand := range []int{8 << 10, 16 << 10, 32 << 10, 64 << 10} {
		// One warm pass per candidate, then the timed pass; keep the
		// fastest so a stray scheduler hiccup cannot pick a bad chunk.
		elapsed := best
		for rep := 0; rep < 2; rep++ {
			start := time.Now()
			prog.runRange(srcs, dsts, 0, stripe, true, cand)
			if d := time.Since(start); d < elapsed {
				elapsed = d
			}
		}
		if elapsed < best {
			best = elapsed
			chunk = cand
			bestBytesPerNs = float64(rows) * stripe / float64(max(int(elapsed.Nanoseconds()), 1))
		}
	}

	// Price a pool dispatch, then require the fanned-out work to be worth
	// several dispatches per worker so handoff stays in the noise. The
	// first ForEach also warms the persistent pool, so the measured cost
	// is a parked-worker handoff, not goroutine creation.
	const dispatches = 32
	parallel.ForEach(2, 2, func(int) {})
	start := time.Now()
	for i := 0; i < dispatches; i++ {
		parallel.ForEach(2, 2, func(int) {})
	}
	handoffNs := float64(time.Since(start).Nanoseconds()) / dispatches
	thresh := int(handoffNs * bestBytesPerNs * 8 * float64(max(ncpu, 1)))
	return tuned{chunk, min(max(thresh, minParallelThreshold), maxParallelThreshold)}
}
