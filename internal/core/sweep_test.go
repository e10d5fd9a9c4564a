package core

import (
	"fmt"
	"testing"

	"repro/internal/parallel"
)

// TestSweepSharesLayouts: two layouts times the three cache schemes
// populate each layout once (2 misses, 4 hits), where one cold Run per
// profile would populate all six. Results come back by input index, each
// equal to its unforked twin.
func TestSweepSharesLayouts(t *testing.T) {
	schemes := []string{SchemeKVOptimized, SchemeDataOptimized, SchemeAutotune}
	var ps []Profile
	for _, pgs := range []int{16, 32} {
		for _, s := range schemes {
			p := fastProfile()
			p.Name = fmt.Sprintf("pg%d-%s", pgs, s)
			p.Pool.PGNum = pgs
			p.Backend.CacheScheme = s
			ps = append(ps, p)
		}
	}
	sw := NewSweep()
	results, errs := sw.Run(ps)
	for i, p := range ps {
		if errs[i] != nil {
			t.Fatalf("%s: %v", p.Name, errs[i])
		}
		if results[i].Profile.Name != p.Name {
			t.Fatalf("result %d is %s's, want %s's", i, results[i].Profile.Name, p.Name)
		}
		compareResults(t, coldRun(t, p), results[i])
	}
	if hits, misses, evictions := sw.Stats(); hits != 4 || misses != 2 || evictions != 0 {
		t.Errorf("stats = %d/%d/%d hits/misses/evictions, want 4/2/0", hits, misses, evictions)
	}
}

// TestSweepBound pins the LRU bound behavior on a sweep shrunk to one
// slot, across Run calls.
func TestSweepBound(t *testing.T) {
	sw := newSweep(1)
	a := fastProfile()
	b := a
	b.Workload.Seed++ // layout-relevant: different snapshot

	// a misses, a hits, b misses and evicts a, a misses again.
	for _, p := range []Profile{a, a, b, a} {
		if _, errs := sw.Run([]Profile{p}); errs[0] != nil {
			t.Fatal(errs[0])
		}
	}
	if hits, misses, evictions := sw.Stats(); hits != 1 || misses != 3 || evictions != 2 {
		t.Errorf("stats = %d/%d/%d hits/misses/evictions, want 1/3/2", hits, misses, evictions)
	}
}

// TestSweepReportsErrorsByIndex: an invalid profile fails alone, with the
// error Validate gives, and a failed populate is a miss that is neither
// cached nor evicted.
func TestSweepReportsErrorsByIndex(t *testing.T) {
	bad := fastProfile()
	bad.Pool.PGNum = 0
	sw := NewSweep()
	results, errs := sw.Run([]Profile{fastProfile(), bad})
	if errs[0] != nil || results[0] == nil {
		t.Fatalf("valid profile: %v", errs[0])
	}
	if want := bad.Validate(); errs[1] == nil || errs[1].Error() != want.Error() || results[1] != nil {
		t.Fatalf("invalid profile: (%v, %v), want (nil, %v)", results[1], errs[1], want)
	}
	if hits, misses, evictions := sw.Stats(); hits != 0 || misses != 2 || evictions != 0 {
		t.Errorf("stats = %d/%d/%d hits/misses/evictions, want 0/2/0", hits, misses, evictions)
	}
}

// TestForkMutationsDoNotLeakAcrossParallelCells runs many cells off one
// snapshot concurrently (run under -race): several recovery-side variants,
// each replicated, all forking the same frozen image at once. Every
// replica must match its serially computed unforked twin in every
// observable — any cross-fork leak (shared chunk map, shared acting set,
// shared decode state) shows up as a divergent replica or a race report.
func TestForkMutationsDoNotLeakAcrossParallelCells(t *testing.T) {
	base := fastProfile()
	schemes := []string{SchemeKVOptimized, SchemeDataOptimized, SchemeAutotune}

	fresh := make([]*Result, len(schemes))
	for i, s := range schemes {
		p := base
		p.Backend.CacheScheme = s
		fresh[i] = coldRun(t, p)
	}

	const replicas = 4
	ps := make([]Profile, len(schemes)*replicas)
	for i := range ps {
		ps[i] = base
		ps[i].Name = fmt.Sprintf("%s-fork-%d", base.Name, i)
		ps[i].Backend.CacheScheme = schemes[i%len(schemes)]
	}
	defer parallel.SetWorkers(parallel.SetWorkers(len(ps)))
	sw := NewSweep()
	results, errs := sw.Run(ps)
	for i := range ps {
		if errs[i] != nil {
			t.Fatalf("cell %d: %v", i, errs[i])
		}
		compareResults(t, fresh[i%len(schemes)], results[i])
	}
	if hits, misses, _ := sw.Stats(); misses != 1 || hits != int64(len(ps)-1) {
		t.Errorf("stats: %d hits %d misses, want %d hits 1 miss", hits, misses, len(ps)-1)
	}
}
