package erasure

import "repro/internal/erasure/kernel"

// PlanCache memoizes the repair plans a code builds per failed-shard set.
// Plans are pure functions of the immutable code construction, so one
// cached *Plan serves every caller — including concurrent cells and
// snapshot forks sharing a registry code — and is never invalidated.
// Cached plans must therefore never be mutated after RepairPlan returns.
//
// The key is the bitmask of failed indices, so permutations and
// duplicates of a set share one entry; the cached plan's Failed order is
// the first builder's, which no consumer depends on.
type PlanCache struct {
	n   int // shard count; indices outside [0, n) bypass the cache
	lru *kernel.LRU[*Plan]
}

// NewPlanCache returns a plan cache for a code with n shards, bounded by
// the shared derived-artifact cache size (kernel.DecodeCacheSize).
func NewPlanCache(n int) *PlanCache {
	return &PlanCache{n: n, lru: kernel.NewLRU[*Plan](kernel.DecodeCacheSize)}
}

// Get returns the memoized plan for the failed set, building it
// singleflight on first use. Sets with out-of-range indices fall through
// to build directly so it can report the error without a mask panic.
func (pc *PlanCache) Get(failed []int, build func() (*Plan, error)) (*Plan, error) {
	for _, f := range failed {
		if f < 0 || f >= pc.n {
			return build()
		}
	}
	return pc.lru.GetOrCompute(kernel.MaskOf(failed...), build)
}

// Len returns the number of cached plans (for tests).
func (pc *PlanCache) Len() int { return pc.lru.Len() }
