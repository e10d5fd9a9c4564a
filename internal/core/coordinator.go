package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cluster"
	"repro/internal/iostat"
	"repro/internal/logsys"
	"repro/internal/simclock"
	"repro/internal/wamodel"
	"repro/internal/workload"
)

// Result is everything one experiment produces.
type Result struct {
	Profile Profile

	// Recovery is nil for fault-free (write-amplification only) profiles.
	Recovery *cluster.RecoveryResult

	// WA is the OSD-level storage-overhead measurement of §4.4.
	WA wamodel.Report

	// Timeline is the globally merged, classified log stream (§3.3).
	Timeline []logsys.Entry

	// IOSamples are the iostat samples gathered during the run.
	IOSamples []iostat.Sample

	UsedBytes    int64
	WrittenBytes int64

	LogLinesShipped int
	LogLinesDropped int

	// PayloadVerified is set for payload-mode workloads: true when every
	// object read back bit-identical after recovery.
	PayloadVerified bool
	PayloadErrors   int

	// Scrub holds the deep-scrub report when the profile injected
	// corruption faults; RepairedInconsistent counts chunks rewritten.
	Scrub                *cluster.ScrubReport
	RepairedInconsistent int
}

// Coordinator orchestrates all the activities in the target DSS:
// configuration, workload execution, fault injection, and log collection
// (§3, Coordinator).
type Coordinator struct {
	mgr     *ECManager
	cluster *cluster.Cluster
	sampler *iostat.Sampler

	// pending holds the classified log lines not yet collected, in the
	// order the cluster logged them; dropped counts the lines since the
	// last collect that matched no category.
	pending []logsys.Entry
	dropped int
}

// NewCoordinator builds the experiment environment for a profile on a
// freshly built root cluster. Profiles run through core.Run, which forks;
// this unforked path is the cold reference the fork tests compare with.
func NewCoordinator(p Profile) (*Coordinator, error) {
	return newCoordinator(p, cluster.New)
}

// newCoordinator is the one constructor of the environment around a
// cluster. build turns the profile's cluster config, whose log sink is
// the coordinator's log, into the cluster under test: cluster.New for a
// root cluster, a snapshot's Fork for a forked one.
func newCoordinator(p Profile, build func(cluster.Config) (*cluster.Cluster, error)) (*Coordinator, error) {
	mgr, err := NewECManager(p)
	if err != nil {
		return nil, err
	}
	co := &Coordinator{mgr: mgr, sampler: iostat.NewSampler()}
	cfg, err := mgr.ClusterConfig(co.log)
	if err != nil {
		return nil, err
	}
	if co.cluster, err = build(cfg); err != nil {
		return nil, err
	}
	// Track devices from a zero baseline: a fork's counters carry the
	// populate traffic, exactly like a root device tracked from birth.
	for _, osd := range co.cluster.OSDs() {
		if err := co.sampler.TrackFrom(fmt.Sprintf("osd.%d", osd.ID), osd.Store.Device(), blockdev.Stats{}); err != nil {
			return nil, err
		}
	}
	return co, nil
}

// log is the cluster's log sink: it classifies a line where it is
// emitted and keeps it for the timeline, or counts it as dropped.
func (co *Coordinator) log(t simclock.Time, node, msg string) {
	cat := logsys.Classify(msg)
	if cat == logsys.CatOther {
		co.dropped++
		return
	}
	co.pending = append(co.pending, logsys.Entry{Time: t, Node: node, Category: cat, Message: msg})
}

// Cluster exposes the cluster under test.
func (co *Coordinator) Cluster() *cluster.Cluster { return co.cluster }

// Run executes the whole experiment cycle on the coordinator's own
// cluster, unforked, and returns its measurements. It is the cold
// reference the fork tests compare with; profiles run through core.Run.
func (co *Coordinator) Run() (*Result, error) {
	res, contents, err := co.populate()
	if err != nil {
		return nil, err
	}
	return co.finish(res, contents)
}

// populate runs the setup half of an experiment — pool creation, the
// write workload, and the storage-overhead measurement — and returns the
// partially filled result plus the payload contents (for post-recovery
// verification). Everything it does depends only on the profile's
// layout-relevant fields, which is what makes populated clusters
// snapshotable and shareable across cells (see Populate).
func (co *Coordinator) populate() (*Result, map[string][]byte, error) {
	p := co.mgr.Profile()
	res := &Result{Profile: p}
	cl := co.cluster

	// 1. Configure the pool.
	if _, err := cl.CreatePool(co.mgr.PoolConfig()); err != nil {
		return nil, nil, err
	}

	// 2. Execute the workload.
	spec := workload.Spec{
		NamePrefix: "obj",
		Count:      p.Workload.Objects,
		ObjectSize: p.Workload.ObjectSize,
		SizeJitter: p.Workload.SizeJitter,
		Seed:       p.Workload.Seed,
	}
	objs, err := spec.Objects()
	if err != nil {
		return nil, nil, err
	}
	contents := map[string][]byte{}
	if p.Workload.Payload {
		rng := newPayloadRNG(p.Workload.Seed)
		for _, o := range objs {
			data := rng.bytes(int(o.Size))
			contents[o.Name] = data
			if err := cl.WriteObject(p.Pool.Name, o.Name, data); err != nil {
				return nil, nil, err
			}
		}
	} else {
		if err := cl.BulkLoad(p.Pool.Name, objs); err != nil {
			return nil, nil, err
		}
	}
	res.WrittenBytes = 0
	for _, o := range objs {
		res.WrittenBytes += o.Size
	}

	// 3. Measure storage overhead (Actual WA Factor, §4.4).
	res.UsedBytes = cl.UsedBytes()
	measured := float64(res.UsedBytes) / float64(res.WrittenBytes)
	res.WA, err = wamodel.NewReport(p.Workload.ObjectSize, p.Pool.K+p.Pool.M, p.Pool.K, p.Pool.StripeUnit, measured)
	if err != nil {
		return nil, nil, err
	}
	return res, contents, nil
}

// finish runs the recovery-side half of an experiment — the profile's
// fault round, payload verification, log collection — on top of a
// populated cluster, whether freshly built or forked from a snapshot.
func (co *Coordinator) finish(res *Result, contents map[string][]byte) (*Result, error) {
	p := co.mgr.Profile()
	if _, err := co.round(p.Faults, res); err != nil {
		return nil, err
	}
	if res.Recovery != nil && p.Workload.Payload {
		res.PayloadVerified = true
		for name, want := range contents {
			got, err := co.cluster.ReadObject(p.Pool.Name, name)
			if err != nil || string(got) != string(want) {
				res.PayloadVerified = false
				res.PayloadErrors++
			}
		}
	}
	co.collect(res)
	return res, nil
}

// round is the one fault round: it plans every spec against the cluster
// as it stands, injects the plans, and measures what follows into res.
// Corruption faults are latent: they are applied, then detected by a deep
// scrub and repaired in place; availability faults go through detection
// and EC recovery, sampled by iostat every 30 simulated seconds, with the
// simulation driven to completion.
func (co *Coordinator) round(specs []FaultSpec, res *Result) ([]PlannedFault, error) {
	pool := co.mgr.Profile().Pool.Name
	cl := co.cluster
	inj := NewFaultInjector(cl, pool)
	plans, err := inj.PlanAll(specs)
	if err != nil {
		return nil, err
	}
	corruption, availability := false, false
	for _, pf := range plans {
		if pf.Spec.Level == FaultLevelCorruption {
			corruption = true
		} else {
			availability = true
		}
		if err := inj.Inject(pf); err != nil {
			return nil, err
		}
	}
	if corruption {
		if res.Scrub, err = cl.ScrubPool(pool); err != nil {
			return nil, err
		}
		if res.RepairedInconsistent, err = cl.RepairInconsistent(pool, res.Scrub); err != nil {
			return nil, err
		}
	}
	if !availability {
		return plans, nil
	}
	rec, err := cl.ScheduleRecovery(pool)
	if err != nil {
		return nil, err
	}
	res.Recovery = rec

	// iostat sampling every 30 simulated seconds until recovery ends.
	var sample func()
	sample = func() {
		co.sampler.Sample(cl.Sim().Now())
		if !rec.Done() {
			cl.Sim().After(30*time.Second, sample)
		}
	}
	cl.Sim().At(rec.DetectedAt, sample)

	cl.RunSim()
	if !rec.Done() {
		return nil, fmt.Errorf("core: recovery did not complete")
	}
	return plans, nil
}

// collect moves the log lines kept since the last collect into
// res.Timeline, stable-sorted by time: same-instant entries stay in the
// order the cluster logged them, which the deterministic engine fixes, so
// fresh and forked clusters produce the same timeline.
func (co *Coordinator) collect(res *Result) {
	slices.SortStableFunc(co.pending, func(a, b logsys.Entry) int { return cmp.Compare(a.Time, b.Time) })
	res.Timeline = co.pending
	res.LogLinesShipped, res.LogLinesDropped = len(co.pending), co.dropped
	// A fresh slice, not pending[:0]: the caller keeps res.Timeline (every
	// schedule round holds its own).
	co.pending, co.dropped = nil, 0
	res.IOSamples = co.sampler.Samples()
}

// Run is the one-call entry point: populate a cluster for the profile,
// then run the profile's recovery side on a fork of it. A batch of
// profiles runs on a Sweep instead, which populates each layout once.
func Run(p Profile) (*Result, error) {
	s, err := Populate(p)
	if err != nil {
		return nil, err
	}
	return s.Run(p)
}

// payloadRNG generates deterministic payload bytes without pulling
// math/rand into the hot path for every object.
type payloadRNG struct{ state uint64 }

func newPayloadRNG(seed int64) *payloadRNG {
	return &payloadRNG{state: uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
}

func (r *payloadRNG) next() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}

func (r *payloadRNG) bytes(n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; i += 8 {
		v := r.next()
		for j := 0; j < 8 && i+j < n; j++ {
			out[i+j] = byte(v >> (8 * j))
		}
	}
	return out
}
