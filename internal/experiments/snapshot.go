package experiments

import (
	"sync/atomic"

	"repro/internal/core"
)

// cells is the process-wide sweep every experiment runs its cells on, so
// figures of one campaign share populated snapshots.
var cells atomic.Pointer[core.Sweep]

func init() { ResetSnapshotCache() }

// ResetSnapshotCache replaces the process-wide sweep with an empty one.
// Exposed for benchmarks and tests.
func ResetSnapshotCache() { cells.Store(core.NewSweep()) }

// SnapshotCacheStats returns (hits, misses, evictions) of the process-wide
// sweep since the last reset.
func SnapshotCacheStats() (int64, int64, int64) { return cells.Load().Stats() }
