// Package kernel compiles erasure-code matrices into executable coding
// programs and provides the repo's one bounded singleflight cache, LRU.
//
// A Program is a set of gf256 row plans compiled once from a generator or
// decode matrix; Run executes it over stripe shards in cache-friendly
// bands, optionally fanning contiguous shard ranges out over
// parallel.ForEach. The LRU has real eviction order, a hard capacity, and
// an allocation-free lookup path: the matrix codecs key it by survivor
// bitmask (Mask), core.Sweep's snapshot cache by layout key.
package kernel

import (
	"errors"
	"sync"
)

// Mask is a bitmask over shard (or sub-chunk row) indices, used as the
// cache key for erasure/survivor patterns. 256 bits covers the largest
// index space any codec here produces (GF(2^8) caps n at 256, and Clay's
// internal row space q*t stays under that).
type Mask [4]uint64

// MaskOf returns the mask with the given bits set. Indices outside
// [0, 256) panic: a key that silently dropped bits would alias distinct
// erasure patterns.
func MaskOf(indices ...int) Mask {
	var m Mask
	for _, i := range indices {
		m.Set(i)
	}
	return m
}

// MaskOfBools returns the mask with bit i set wherever flags[i] is true.
func MaskOfBools(flags []bool) Mask {
	var m Mask
	for i, f := range flags {
		if f {
			m.Set(i)
		}
	}
	return m
}

// Set sets bit i.
func (m *Mask) Set(i int) {
	if i < 0 || i >= 256 {
		panic("kernel: mask index out of range")
	}
	m[i>>6] |= 1 << (i & 63)
}

// Has reports whether bit i is set.
func (m Mask) Has(i int) bool {
	if i < 0 || i >= 256 {
		return false
	}
	return m[i>>6]&(1<<(i&63)) != 0
}

// DecodeCacheSize bounds the per-code derived-artifact caches (decode
// programs, Clay plane solvers, gensolve pattern solvers, repair plans).
// Patterns repeat heavily in practice — a cluster has few concurrent
// failure sets — so a modest bound with real LRU eviction keeps the hit
// rate high.
const DecodeCacheSize = 1024

// lruEntry is an intrusive doubly-linked node in recency order.
type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruEntry[K, V]
}

// LRU is a bounded map with least-recently-used eviction. It is safe for
// concurrent use. A GetOrCompute hit performs no allocations, so cache
// hits on the decode hot path (keyed by Mask) cost a mutex and a map
// lookup. Misses fill singleflight-style: one goroutine computes while
// concurrent callers for the same key wait for its result, so a shared
// code instance never compiles the same program twice and concurrent
// experiment cells never populate the same snapshot twice.
type LRU[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[K]*lruEntry[K, V]
	head     *lruEntry[K, V] // most recently used
	tail     *lruEntry[K, V] // least recently used

	fills map[K]*fill[V] // in-flight GetOrCompute computations
}

// fill tracks one in-flight computation. Waiters block on done; the
// leader stores the outcome before closing it.
type fill[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewLRU returns an LRU holding at most capacity entries. capacity < 1
// panics.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		panic("kernel: LRU capacity must be positive")
	}
	return &LRU[K, V]{
		capacity: capacity,
		entries:  make(map[K]*lruEntry[K, V], capacity),
		fills:    make(map[K]*fill[V]),
	}
}

// insertLocked adds a key GetOrCompute has just filled — the fill it held
// kept every other caller from inserting it — as most recently used, and
// evicts the least recently used entry when over capacity.
func (l *LRU[K, V]) insertLocked(key K, val V) {
	e := &lruEntry[K, V]{key: key, val: val}
	l.entries[key] = e
	l.pushFront(e)
	if len(l.entries) > l.capacity {
		evict := l.tail
		l.unlink(evict)
		delete(l.entries, evict.key)
	}
}

// errComputePanicked is handed to waiters when the leading computation
// panicked; the panic itself propagates on the leader's goroutine.
var errComputePanicked = errors.New("kernel: cache fill panicked")

// GetOrCompute returns the cached value for key, or computes, caches, and
// returns it. Fills are singleflight: when several goroutines miss on the
// same key, one runs compute (without the cache lock) and the rest block
// until it finishes, then share its result. Errors are not cached — a
// later caller retries the computation. Values must be immutable, as one
// value is returned to every caller.
func (l *LRU[K, V]) GetOrCompute(key K, compute func() (V, error)) (V, error) {
	l.mu.Lock()
	if e, ok := l.entries[key]; ok {
		l.moveToFront(e)
		v := e.val
		l.mu.Unlock()
		return v, nil
	}
	if f, ok := l.fills[key]; ok {
		l.mu.Unlock()
		<-f.done
		return f.val, f.err
	}
	f := &fill[V]{done: make(chan struct{})}
	l.fills[key] = f
	l.mu.Unlock()

	finished := false
	defer func() {
		if !finished {
			// compute panicked: unblock waiters with an error and let the
			// panic propagate on this goroutine.
			f.err = errComputePanicked
		}
		l.mu.Lock()
		delete(l.fills, key)
		if f.err == nil {
			l.insertLocked(key, f.val)
		}
		l.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = compute()
	finished = true
	if f.err != nil {
		var zero V
		return zero, f.err
	}
	return f.val, nil
}

// Len returns the current entry count.
func (l *LRU[K, V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

func (l *LRU[K, V]) pushFront(e *lruEntry[K, V]) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *LRU[K, V]) unlink(e *lruEntry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *LRU[K, V]) moveToFront(e *lruEntry[K, V]) {
	if l.head == e {
		return
	}
	l.unlink(e)
	l.pushFront(e)
}
