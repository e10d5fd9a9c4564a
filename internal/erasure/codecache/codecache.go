// Package codecache is the process-wide registry of shared erasure code
// instances, keyed by plugin spec (plugin, k, m, d). The paper's study
// sweeps many configurations of the same few codes, so cluster pools,
// snapshot forks, and experiment cells that share a spec all receive one
// Code instance instead of rebuilding constructions per fork — and with
// it the instance's derived-artifact caches (decode programs, plane
// solvers, repair plans), which are concurrency-safe with singleflight
// fill.
//
// Ownership rules: everything a code builds in New is frozen there;
// everything derived afterwards is cached inside the instance; nothing
// is ever invalidated, so the registry itself is append-only and
// unbounded (the spec space a process touches is tiny). A caller that
// wants a private instance calls erasure.New.
package codecache

import (
	"sync"

	"repro/internal/erasure"
)

// Spec identifies one code configuration. D is the plugin-specific extra
// parameter (Clay's repair degree, LRC's locality, SHEC's durability).
type Spec struct {
	Plugin  string
	K, M, D int
}

// entry holds one shared instance; the sync.Once makes construction
// singleflight without holding the registry lock.
type entry struct {
	once sync.Once
	code erasure.Code
	err  error
}

var (
	mu           sync.Mutex
	entries      = map[Spec]*entry{}
	hits, misses int64
)

// Get returns the shared code instance for the spec, constructing it on
// first use. d = 0 resolves to the default the plugin registered with, so
// callers passing 0 and callers passing that default share one entry.
// Construction errors are cached too: the plugin set and spec are fixed
// at init/config time, so a failing spec keeps failing.
func Get(plugin string, k, m, d int) (erasure.Code, error) {
	spec := Spec{Plugin: plugin, K: k, M: m, D: erasure.ResolveD(plugin, k, m, d)}
	mu.Lock()
	e, ok := entries[spec]
	if ok {
		hits++
	} else {
		e = &entry{}
		entries[spec] = e
		misses++
	}
	mu.Unlock()
	e.once.Do(func() {
		e.code, e.err = erasure.New(spec.Plugin, spec.K, spec.M, spec.D)
	})
	return e.code, e.err
}

// Stats returns the registry hit/miss counters (for tests and benchmarks).
func Stats() (h, m int64) {
	mu.Lock()
	defer mu.Unlock()
	return hits, misses
}
