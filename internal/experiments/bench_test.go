package experiments

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/parallel"
)

// BenchmarkSimEngine measures the discrete-event engine itself: the
// Figure-2 suite with a single worker, so wall-clock tracks the event
// loop rather than the experiment fan-out. scale=50 is the quick
// regression guard; scale=1 is the paper's full 10,000-object workload
// (the full-fidelity mode).
func BenchmarkSimEngine(b *testing.B) {
	for _, scale := range []int{50, 1} {
		b.Run(fmt.Sprintf("fig2suite/scale=%d", scale), func(b *testing.B) {
			prev := parallel.SetWorkers(1)
			defer parallel.SetWorkers(prev)
			for i := 0; i < b.N; i++ {
				// Each iteration is one cold campaign: cells share
				// populated-cluster snapshots within it, never across
				// iterations.
				ResetSnapshotCache()
				for _, fig := range []func(int) (*Figure, error){
					Fig2aBackendCache, Fig2bPlacementGroups, Fig2cStripeUnit, Fig2dFailureMode,
				} {
					if _, err := fig(scale); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSnapshotFork measures the per-cell setup cost a campaign pays
// after the one-time populate: one copy-on-write fork plus a full (tiny)
// recovery, so the fork-side set-up dominates the iteration; forks share
// one registry code instance and its warm plan/program caches.
func BenchmarkSnapshotFork(b *testing.B) {
	const scale = 400 // 25 objects: recovery is small, setup dominates
	for _, c := range Codes {
		b.Run("plugin="+c.Plugin, func(b *testing.B) {
			prev := parallel.SetWorkers(1)
			defer parallel.SetWorkers(prev)
			p := withCode(baseProfile(scale), c.Plugin, c.D)
			snap, err := core.Populate(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := snap.Run(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExperimentCells measures one full figure (six recovery cells)
// serial versus fanned out over the worker pool. On multi-core machines
// the speedup tracks the worker count until cells outnumber cores; on a
// single core it bounds the scheduling overhead of the pool itself.
func BenchmarkExperimentCells(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			prev := parallel.SetWorkers(workers)
			defer parallel.SetWorkers(prev)
			for i := 0; i < b.N; i++ {
				if _, err := Fig2aBackendCache(400); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
