package experiments

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/erasure/kernel"
)

// snapshotBound caps how many populated-cluster snapshots are kept alive
// at once. Each pins the frozen stores of one cluster image (about
// 1.25 MB live for the paper default workload; payload-mode images also
// pin their device blocks). The 73-cell campaign has 53 distinct layouts:
// at 16 slots it skips 18 populates and bench/ecperf's campaign peaks at
// 97-104 MB RSS; unbounded it skips 20 and peaks at 149-155 MB, against a
// 10% bound on that metric. The bound is the cheaper side of that trade,
// so it is a constant.
const snapshotBound = 16

// snapshotCache is a bounded LRU of populated-cluster snapshots keyed by
// core.Profile.LayoutKey, shared across the parallel cell fan-out of every
// experiment in the process; the LRU's singleflight fill makes concurrent
// cells sharing a layout populate exactly one cluster between them.
// Snapshots carry no erasure codes: forks look their pool's code up in the
// process-wide codecache registry, so evicting a snapshot never discards
// compiled plans or programs.
type snapshotCache struct {
	lru *kernel.LRU[string, *core.Snapshot]
	// requests counts Run calls, populates the fills among them and
	// failed the fills that returned an error (the LRU does not keep
	// those); Stats derives everything else.
	requests, populates, failed atomic.Int64
}

func newSnapshotCache(bound int) *snapshotCache {
	return &snapshotCache{lru: kernel.NewLRU[string, *core.Snapshot](bound)}
}

// Run executes one cell: fetch (or populate exactly once) the snapshot
// for the profile's layout, then run the recovery side on a fork.
func (c *snapshotCache) Run(p core.Profile) (*core.Result, error) {
	c.requests.Add(1)
	snap, err := c.lru.GetOrCompute(p.LayoutKey(), func() (*core.Snapshot, error) {
		c.populates.Add(1)
		s, err := core.Populate(p)
		if err != nil {
			c.failed.Add(1)
		}
		return s, err
	})
	if err != nil {
		return nil, err
	}
	return snap.Run(p)
}

// Stats returns (hits, misses, evictions): every populate is a miss, and
// every successful one is either still cached or was evicted.
func (c *snapshotCache) Stats() (int64, int64, int64) {
	misses := c.populates.Load()
	return c.requests.Load() - misses, misses, misses - c.failed.Load() - int64(c.lru.Len())
}

// engineCache is the process-wide snapshot cache behind runProfiles.
var engineCache atomic.Pointer[snapshotCache]

func init() { ResetSnapshotCache() }

// ResetSnapshotCache replaces the process-wide snapshot cache with an
// empty one. Exposed for benchmarks and tests.
func ResetSnapshotCache() { engineCache.Store(newSnapshotCache(snapshotBound)) }

// SnapshotCacheStats returns (hits, misses, evictions) of the process-wide
// snapshot cache since the last reset.
func SnapshotCacheStats() (int64, int64, int64) { return engineCache.Load().Stats() }
