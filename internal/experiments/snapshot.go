package experiments

import (
	"sync"

	"repro/internal/core"
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

// snapshotEntry is one cached populate, guarded by a sync.Once so that
// concurrent cells sharing a layout populate exactly one cluster between
// them (singleflight) while the cache lock stays uncontended.
type snapshotEntry struct {
	once sync.Once
	snap *core.Snapshot
	err  error
}

// snapshotCache is a bounded LRU of populated-cluster snapshots keyed by
// core.Profile.LayoutKey. It is shared across the parallel cell fan-out
// of every experiment in the process. Snapshots carry no erasure codes:
// forks look their pool's code up in the process-wide codecache registry,
// so evicting a snapshot never discards compiled plans or programs.
type snapshotCache struct {
	mu      sync.Mutex
	bound   int
	entries map[string]*snapshotEntry
	order   []string // LRU order: least recently used first

	hits      int64
	misses    int64
	evictions int64
}

func newSnapshotCache() *snapshotCache {
	return &snapshotCache{bound: snapshotBound, entries: map[string]*snapshotEntry{}}
}

// entry returns the cache slot for a layout key, creating and LRU-bumping
// it under the lock. Population happens outside the lock via the entry's
// once.
func (c *snapshotCache) entry(key string) *snapshotEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
		c.bump(key)
		return e
	}
	c.misses++
	e = &snapshotEntry{}
	c.entries[key] = e
	c.order = append(c.order, key)
	for len(c.entries) > c.bound {
		victim := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, victim)
		c.evictions++
	}
	return e
}

// bump moves a key to the most-recently-used end.
func (c *snapshotCache) bump(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), key)
			return
		}
	}
}

// Run executes one cell: fetch (or populate exactly once) the snapshot
// for the profile's layout, then run the recovery side on a copy-on-write
// fork.
func (c *snapshotCache) Run(p core.Profile) (*core.Result, error) {
	e := c.entry(p.LayoutKey())
	e.once.Do(func() {
		e.snap, e.err = core.Populate(p)
	})
	if e.err != nil {
		return nil, e.err
	}
	return e.snap.Run(p)
}

// Reset drops every cached snapshot and zeroes the counters. Benchmarks
// use it to measure cold-cache behavior.
func (c *snapshotCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*snapshotEntry{}
	c.order = nil
	c.hits, c.misses, c.evictions = 0, 0, 0
}

// Stats returns (hits, misses, evictions) since the last Reset.
func (c *snapshotCache) Stats() (int64, int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// engineCache is the process-wide snapshot cache behind runProfiles.
var engineCache = newSnapshotCache()

// ResetSnapshotCache clears the process-wide snapshot cache. Exposed for
// benchmarks and tests.
func ResetSnapshotCache() { engineCache.Reset() }

// SnapshotCacheStats returns (hits, misses, evictions) of the process-wide
// snapshot cache since the last reset.
func SnapshotCacheStats() (int64, int64, int64) { return engineCache.Stats() }
