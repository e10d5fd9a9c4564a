package core

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/logsys"
	"repro/internal/wamodel"
)

// Snapshot is a populated experiment environment captured after the
// workload phase: the frozen cluster image plus the populate-phase
// measurements and log lines. It is immutable and safe to Run
// concurrently; each Run forks the cluster copy-on-write and pays only
// for recovery-side work.
type Snapshot struct {
	layout Layout
	snap   *cluster.Snapshot

	written  int64
	used     int64
	wa       wamodel.Report
	contents map[string][]byte // payload bytes, read-only
	logs     []logsys.Entry    // populate-phase log lines, classified
	dropped  int
}

// Populate builds a cluster for the profile, runs the populate phase
// (pool creation, workload, storage-overhead measurement), and captures
// the result as an immutable Snapshot. Faults, tuning, cache and network
// settings of the profile are irrelevant here — only layout-relevant
// fields shape the snapshot — so one Populate can serve every profile
// sharing the same Layout.
func Populate(p Profile) (*Snapshot, error) {
	l, err := p.Layout()
	if err != nil {
		return nil, err
	}
	co, err := NewCoordinator(p)
	if err != nil {
		return nil, err
	}
	res, contents, err := co.populate()
	if err != nil {
		return nil, err
	}
	s := &Snapshot{layout: l}
	s.snap = co.cluster.Snapshot()
	s.written = res.WrittenBytes
	s.used = res.UsedBytes
	s.wa = res.WA
	s.contents = contents
	s.logs, s.dropped = co.pending, co.dropped
	return s, nil
}

// Run executes the recovery side of a profile on a copy-on-write fork of
// the snapshot. The profile's Layout must match the snapshot's; its
// recovery-side fields (cache scheme, network, faults, tuning) are
// applied to the fork. Results are bit-identical to Coordinator.Run on
// a freshly built, unforked cluster.
func (s *Snapshot) Run(p Profile) (*Result, error) {
	co, err := s.coordinator(p)
	if err != nil {
		return nil, err
	}
	res := &Result{Profile: p, WrittenBytes: s.written, UsedBytes: s.used, WA: s.wa}
	return co.finish(res, s.contents)
}

// coordinator builds the experiment environment around a fresh fork of
// the snapshot, holding a copy of the populate-phase log lines so the
// fork's timeline matches an unforked run's.
func (s *Snapshot) coordinator(p Profile) (*Coordinator, error) {
	l, err := p.Layout()
	if err != nil {
		return nil, err
	}
	if l != s.layout {
		return nil, fmt.Errorf("core: profile %q layout %+v does not match snapshot layout %+v", p.Name, l, s.layout)
	}
	co, err := newCoordinator(p, s.snap.Fork)
	if err != nil {
		return nil, err
	}
	co.pending, co.dropped = slices.Clone(s.logs), s.dropped
	return co, nil
}
