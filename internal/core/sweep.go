package core

import (
	"encoding/json"
	"reflect"
	"slices"
	"sync/atomic"

	"repro/internal/erasure/kernel"
	"repro/internal/parallel"
)

// sweepBound caps how many populated-cluster snapshots, and how many
// results, a Sweep keeps alive at once. A snapshot pins the frozen stores
// of one cluster image (about 1.25 MB live for the paper default
// workload; payload-mode images also pin their chunk bytes), a result its
// timeline and iostat samples (about 0.2 MB for a paper-default
// recovery). The campaign (ecbench -scale 1) makes 73 requests for 67
// distinct profiles on 53 distinct layouts: at 16 slots it populates 55
// times, serves 6 of its 8 repeated profiles without simulating (the
// plugin table's two come after the 36 WA results), and bench/ecperf's
// campaign peaks at 68 MB RSS, 53-57 MB without the result cache. Serving
// all 8 takes 56 result slots; an unbounded snapshot cache skips 2 more
// populates for about 50 MB more RSS, against a 10% bound on that metric.
// The bound is the cheaper side of that trade, so it is a constant.
const sweepBound = 16

// Sweep runs batches of profiles, simulating each distinct profile once
// and populating each layout once. It holds two bounded LRUs kept across
// Run calls: results keyed by the profile with its Name cleared, and
// populated-cluster snapshots keyed by Profile.Layout. A request for a
// profile still among the recent results is served a copy without
// simulating; any other runs its recovery side on a fork of its layout's
// snapshot. Both fills are singleflight, so concurrent requests for one
// profile simulate it once and concurrent requests sharing a layout
// populate one cluster between them. Snapshots carry no erasure codes:
// forks look their pool's code up in the process-wide codecache
// registry, so evicting a snapshot never discards compiled plans or
// programs. A Sweep is safe for concurrent use.
type Sweep struct {
	snapshots *kernel.LRU[Layout, *Snapshot]
	results   *kernel.LRU[string, *Result]
	// requests counts profiles run, populates the fills among them and
	// failed the fills that returned an error (the LRU does not keep
	// those); Stats derives everything else. runs counts the simulations,
	// for tests.
	requests, populates, failed, runs atomic.Int64
}

// NewSweep returns an empty sweep.
func NewSweep() *Sweep { return newSweep(sweepBound) }

func newSweep(bound int) *Sweep {
	return &Sweep{
		snapshots: kernel.NewLRU[Layout, *Snapshot](bound),
		results:   kernel.NewLRU[string, *Result](bound),
	}
}

// Run executes every profile concurrently under the worker budget
// (parallel.Workers: ECFAULT_WORKERS, a -workers flag, or NumCPU).
// Results and errors come back by input index, so a caller sees the same
// values at any worker count, and each result is bit-identical to what
// the one-shot Run returns for its profile. Every result is its own
// Result, with its own Profile, Recovery and Scrub; results of profiles
// equal but for their Name share Timeline and IOSamples, which callers
// must treat as read-only.
func (s *Sweep) Run(ps []Profile) ([]*Result, []error) {
	results := make([]*Result, len(ps))
	errs := make([]error, len(ps))
	parallel.ForEach(len(ps), parallel.Workers(), func(i int) {
		results[i], errs[i] = s.run(ps[i])
	})
	return results, errs
}

// run serves the profile's result from the result cache, or simulates it
// exactly once.
func (s *Sweep) run(p Profile) (*Result, error) {
	s.requests.Add(1)
	key, ok := resultKey(p)
	if !ok {
		return s.simulate(p)
	}
	r, err := s.results.GetOrCompute(key, func() (*Result, error) { return s.simulate(p) })
	if err != nil {
		return nil, err
	}
	return servedCopy(r, p), nil
}

// simulate fetches (or populates exactly once) the snapshot for the
// profile's layout, then runs the recovery side on a fork.
func (s *Sweep) simulate(p Profile) (*Result, error) {
	l, err := p.Layout()
	if err != nil {
		// An invalid profile is a miss whose populate fails.
		s.populates.Add(1)
		s.failed.Add(1)
		return nil, err
	}
	snap, err := s.snapshots.GetOrCompute(l, func() (*Snapshot, error) {
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
	s.runs.Add(1)
	return snap.Run(p)
}

// resultKey is the profile's JSON encoding with Name cleared, the one
// field no simulation reads. It reports false when decoding the encoding
// does not give back the same profile (a string that is not valid UTF-8,
// a field the encoding skips, an empty OSDs list it omits): such a key
// could stand for another profile too, so the profile is not cached. Two
// profiles that get the same key are therefore equal but for their Name.
func resultKey(p Profile) (string, bool) {
	p.Name = ""
	data, err := json.Marshal(p)
	if err != nil {
		return "", false
	}
	var back Profile
	if err := json.Unmarshal(data, &back); err != nil || !reflect.DeepEqual(back, p) {
		return "", false
	}
	return string(data), true
}

// servedCopy returns the cached result r as the result of p: a new Result
// with p as its Profile and its own copies of the recovery and scrub
// reports, sharing r's read-only Timeline and IOSamples.
func servedCopy(r *Result, p Profile) *Result {
	c := *r
	c.Profile = p
	if r.Recovery != nil {
		rec := *r.Recovery
		c.Recovery = &rec
	}
	if r.Scrub != nil {
		scrub := *r.Scrub
		scrub.Inconsistent = slices.Clone(r.Scrub.Inconsistent)
		c.Scrub = &scrub
	}
	return &c
}

// Stats returns (hits, misses, evictions): every populate is a miss and
// every other request a hit, a served result included; every successful
// populate is either still cached or was evicted.
func (s *Sweep) Stats() (int64, int64, int64) {
	misses := s.populates.Load()
	return s.requests.Load() - misses, misses, misses - s.failed.Load() - int64(s.snapshots.Len())
}
