package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/simclock"
	"repro/internal/wamodel"
)

// replayLine is one framework log line recorded during the populate
// phase, replayed into every fork's log pipeline so forked runs ship the
// same timeline a fresh run would.
type replayLine struct {
	t    simclock.Time
	node string
	msg  string
}

// Snapshot is a populated experiment environment captured after the
// workload phase: the frozen cluster image plus the populate-phase
// measurements and log lines. It is immutable and safe to Run
// concurrently; each Run forks the cluster copy-on-write and pays only
// for recovery-side work.
type Snapshot struct {
	profile   Profile
	layoutKey string
	snap      *cluster.Snapshot

	written  int64
	used     int64
	wa       wamodel.Report
	contents map[string][]byte // payload bytes, read-only
	logs     []replayLine
}

// LayoutKey returns the layout hash of the profile the snapshot was
// populated from.
func (s *Snapshot) LayoutKey() string { return s.layoutKey }

// Populate builds a cluster for the profile, runs the populate phase
// (pool creation, workload, storage-overhead measurement), and captures
// the result as an immutable Snapshot. Faults, tuning, cache and network
// settings of the profile are irrelevant here — only layout-relevant
// fields shape the snapshot — so one Populate can serve every profile
// sharing the same LayoutKey.
func Populate(p Profile) (*Snapshot, error) {
	mgr, err := NewECManager(p)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{profile: p, layoutKey: p.LayoutKey()}
	recorder := func(t simclock.Time, node, msg string) {
		s.logs = append(s.logs, replayLine{t: t, node: node, msg: msg})
	}
	cfg, err := mgr.ClusterConfig(recorder)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	co := &Coordinator{mgr: mgr, cluster: cl}
	res, contents, err := co.populate()
	if err != nil {
		return nil, err
	}
	s.snap = cl.Snapshot()
	s.written = res.WrittenBytes
	s.used = res.UsedBytes
	s.wa = res.WA
	s.contents = contents
	return s, nil
}

// Run executes the recovery side of a profile on a copy-on-write fork of
// the snapshot. The profile's LayoutKey must match the snapshot's; its
// recovery-side fields (cache scheme, network, faults, tuning) are
// applied to the fork. Results are bit-identical to Coordinator.Run on
// a freshly built, unforked cluster.
func (s *Snapshot) Run(p Profile) (*Result, error) {
	co, err := s.coordinator(p)
	if err != nil {
		return nil, err
	}
	defer co.Close()
	res := &Result{Profile: p, WrittenBytes: s.written, UsedBytes: s.used, WA: s.wa}
	return co.finish(res, s.contents)
}

// coordinator builds the experiment environment around a fresh fork of
// the snapshot, with the populate-phase log lines replayed so the fork's
// shipped timeline matches an unforked run's.
func (s *Snapshot) coordinator(p Profile) (*Coordinator, error) {
	if key := p.LayoutKey(); key != s.layoutKey {
		return nil, fmt.Errorf("core: profile %q layout %s does not match snapshot layout %s", p.Name, key[:12], s.layoutKey[:12])
	}
	co, err := newCoordinator(p, s.snap.Fork)
	if err != nil {
		return nil, err
	}
	for _, rl := range s.logs {
		co.nodeLogger(rl.node).Log(rl.t, rl.msg)
	}
	return co, nil
}
