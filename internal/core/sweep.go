package core

import (
	"sync/atomic"

	"repro/internal/erasure/kernel"
	"repro/internal/parallel"
)

// sweepBound caps how many populated-cluster snapshots a Sweep keeps alive
// at once. Each pins the frozen stores of one cluster image (about
// 1.25 MB live for the paper default workload; payload-mode images also
// pin their chunk bytes). The 73-cell campaign has 53 distinct layouts:
// at 16 slots it skips 18 populates and bench/ecperf's campaign peaks at
// 97-104 MB RSS; unbounded it skips 20 and peaks at 149-155 MB, against a
// 10% bound on that metric. The bound is the cheaper side of that trade,
// so it is a constant.
const sweepBound = 16

// Sweep runs batches of profiles, populating each layout once. It is a
// bounded LRU of populated-cluster snapshots keyed by Profile.Layout,
// kept across Run calls, whose singleflight fill makes concurrent runs
// sharing a layout populate exactly one cluster between them; every
// profile then runs its recovery side on a fork. Snapshots carry no
// erasure codes: forks look their pool's code up in the process-wide
// codecache registry, so evicting a snapshot never discards compiled
// plans or programs. A Sweep is safe for concurrent use.
type Sweep struct {
	lru *kernel.LRU[Layout, *Snapshot]
	// requests counts profiles run, populates the fills among them and
	// failed the fills that returned an error (the LRU does not keep
	// those); Stats derives everything else.
	requests, populates, failed atomic.Int64
}

// NewSweep returns an empty sweep.
func NewSweep() *Sweep { return newSweep(sweepBound) }

func newSweep(bound int) *Sweep {
	return &Sweep{lru: kernel.NewLRU[Layout, *Snapshot](bound)}
}

// Run executes every profile concurrently under the worker budget
// (parallel.Workers: ECFAULT_WORKERS, a -workers flag, or NumCPU).
// Results and errors come back by input index, so a caller sees the same
// values at any worker count, and each result is bit-identical to what
// the one-shot Run returns for its profile.
func (s *Sweep) Run(ps []Profile) ([]*Result, []error) {
	results := make([]*Result, len(ps))
	errs := make([]error, len(ps))
	parallel.ForEach(len(ps), parallel.Workers(), func(i int) {
		results[i], errs[i] = s.run(ps[i])
	})
	return results, errs
}

// run fetches (or populates exactly once) the snapshot for the profile's
// layout, then runs the recovery side on a fork.
func (s *Sweep) run(p Profile) (*Result, error) {
	s.requests.Add(1)
	l, err := p.Layout()
	if err != nil {
		// An invalid profile is a miss whose populate fails.
		s.populates.Add(1)
		s.failed.Add(1)
		return nil, err
	}
	snap, err := s.lru.GetOrCompute(l, func() (*Snapshot, error) {
		s.populates.Add(1)
		snap, err := Populate(p)
		if err != nil {
			s.failed.Add(1)
		}
		return snap, err
	})
	if err != nil {
		return nil, err
	}
	return snap.Run(p)
}

// Stats returns (hits, misses, evictions): every populate is a miss, and
// every successful one is either still cached or was evicted.
func (s *Sweep) Stats() (int64, int64, int64) {
	misses := s.populates.Load()
	return s.requests.Load() - misses, misses, misses - s.failed.Load() - int64(s.lru.Len())
}
