package kernel

// DecodeCacheSize bounds the per-code derived-artifact caches (decode
// programs, Clay plane solvers, gensolve pattern solvers, repair plans).
// Patterns repeat heavily in practice — a cluster has few concurrent
// failure sets — so a modest bound with real LRU eviction keeps the hit
// rate high.
const DecodeCacheSize = 1024

// shardCount is the number of LRU shards in a Sharded cache. Power of two
// so shard selection is a mask. Eight shards keeps lock hold times short
// under the experiment fan-out (worker count is CPU-bounded) without
// fragmenting small caches.
const shardCount = 8

// Sharded is a Mask-keyed cache that spreads entries over several LRU
// shards to cut mutex contention when many goroutines share one code
// instance. Each shard retains singleflight fills, so a given key is
// still computed at most once concurrently. Capacity is split evenly
// across shards (LRU eviction is per shard, i.e. approximate globally);
// caches smaller than the shard count collapse to a single shard to keep
// strict LRU semantics.
type Sharded[V any] struct {
	shards []*LRU[V]
}

// NewSharded returns a sharded cache holding roughly capacity entries.
// capacity < 1 panics.
func NewSharded[V any](capacity int) *Sharded[V] {
	if capacity < 1 {
		panic("kernel: Sharded capacity must be positive")
	}
	n := shardCount
	if capacity < n {
		n = 1
	}
	per := (capacity + n - 1) / n
	s := &Sharded[V]{shards: make([]*LRU[V], n)}
	for i := range s.shards {
		s.shards[i] = NewLRU[V](per)
	}
	return s
}

// shard hashes the mask down to one shard. The multiply-xor mix spreads
// the sparse, low-entropy masks real erasure patterns produce.
func (s *Sharded[V]) shard(key Mask) *LRU[V] {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	h := key[0]
	h = h*0x9e3779b97f4a7c15 + key[1]
	h = h*0x9e3779b97f4a7c15 + key[2]
	h = h*0x9e3779b97f4a7c15 + key[3]
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return s.shards[h&uint64(len(s.shards)-1)]
}

// Get returns the value for key and promotes it within its shard.
func (s *Sharded[V]) Get(key Mask) (V, bool) {
	return s.shard(key).Get(key)
}

// Put inserts or updates key in its shard.
func (s *Sharded[V]) Put(key Mask, val V) {
	s.shard(key).Put(key, val)
}

// GetOrCompute returns the cached value for key, computing it singleflight
// on a miss. See LRU.GetOrCompute.
func (s *Sharded[V]) GetOrCompute(key Mask, compute func() (V, error)) (V, error) {
	return s.shard(key).GetOrCompute(key, compute)
}

// Len returns the total entry count across shards.
func (s *Sharded[V]) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}
