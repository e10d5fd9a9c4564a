package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/simclock"
	simworkload "repro/internal/workload"
)

// probeRoot is the root span of the layer probe. Per-layer metrics are
// computed only from spans under it, so they mean the same in every
// workload's traced pass.
const probeRoot = "probe"

// probeFacts are the exact (non-timing) values the probe collects.
type probeFacts struct {
	recovery        *cluster.RecoveryResult // paper-default RS, one host failed
	timelineEntries int
	snapshotLiveMB  float64
	campaign        campaignResult
}

// probe takes the layer budget from outside: it rebuilds one experiment
// from exported cluster calls only, so each layer's share of core.Populate
// and Snapshot.Run can be timed without touching the program, then times
// the core entry points on the same profiles, one campaign pass by its
// experiments, every codec series by its calls, and the raw row kernel.
func probe(r *run, series []*codecSeries) (probeFacts, error) {
	var facts probeFacts
	var err error
	tr := r.tr
	tr.nextOp()
	tr.do(probeRoot, func() {
		profiles := singleRunProfiles(r.cfg.scale)
		for i := 0; i < r.cfg.shrunk(8) && err == nil; i++ {
			for _, p := range profiles {
				if err = probeExperiment(tr, p, &facts); err != nil {
					return
				}
			}
		}
		if facts.snapshotLiveMB, err = snapshotLiveMB(profiles[0]); err != nil {
			return
		}
		if facts.campaign, err = campaignOp(tr, r.cfg.scale); err != nil {
			return
		}
		for _, s := range series {
			for i := 0; i < 3*s.cycles && err == nil; i++ {
				_, err = s.cycle(tr)
			}
		}
		if err != nil {
			return
		}
		rowMulAdd(tr, "gf256.row_muladd.4KiB", 4<<10, r.cfg.shrunk(4096), r.seed)
		rowMulAdd(tr, "gf256.row_muladd.64KiB", 64<<10, r.cfg.shrunk(512), r.seed)
	})
	return facts, err
}

// probeExperiment runs one profile three ways: piecewise through exported
// cluster calls (the same sequence core.Populate and Snapshot.Run make),
// then through core.Populate + Snapshot.Run, then through a cold core.Run.
func probeExperiment(tr *tracer, p core.Profile, facts *probeFacts) error {
	var err error
	step := func(name string, fn func() error) {
		if err == nil {
			tr.doAlloc(name, func() { err = fn() })
		}
	}

	mgr, err := core.NewECManager(p)
	if err != nil {
		return err
	}
	cfg, err := mgr.ClusterConfig(nil)
	if err != nil {
		return err
	}
	pool := p.Pool.Name

	var cl, fork *cluster.Cluster
	var objs []simworkload.Object
	var snap *cluster.Snapshot
	var rec *cluster.RecoveryResult
	step("cluster.New", func() (err error) { cl, err = cluster.New(cfg); return })
	step("cluster.CreatePool", func() error { _, err := cl.CreatePool(mgr.PoolConfig()); return err })
	step("workload.Objects", func() (err error) {
		objs, err = simworkload.Spec{NamePrefix: "obj", Count: p.Workload.Objects, ObjectSize: p.Workload.ObjectSize}.Objects()
		return
	})
	step("cluster.BulkLoad", func() error { return cl.BulkLoad(pool, objs) })
	step("cluster.Snapshot", func() error { snap = cl.Snapshot(); return nil })
	step("cluster.Fork", func() (err error) { fork, err = snap.Fork(cfg); return })
	step("cluster.Schedule", func() error {
		host, err := fork.HostWithMostChunks(pool)
		if err != nil {
			return err
		}
		fork.FailHost(simclock.Time(10*time.Second), host)
		rec, err = fork.ScheduleRecovery(pool)
		return err
	})
	step("cluster.RunSim", func() error {
		fork.RunSim()
		if !rec.Done() {
			return fmt.Errorf("probe: recovery of %s did not complete", p.Name)
		}
		return nil
	})
	if err != nil {
		return err
	}

	var csnap *core.Snapshot
	var res *core.Result
	step("core.Populate", func() (err error) { csnap, err = core.Populate(p); return })
	step("core.Snapshot.Run", func() (err error) { res, err = csnap.Run(p); return })
	step("core.Run", func() (err error) { res, err = core.Run(p); return })
	if err != nil {
		return err
	}
	if res.Recovery == nil || res.Recovery.ObjectRepairs != rec.ObjectRepairs {
		return fmt.Errorf("probe: %s rebuilt from cluster calls repaired %d objects, core.Run %v", p.Name, rec.ObjectRepairs, res.Recovery)
	}
	if p.Pool.Plugin != "clay" {
		facts.recovery = res.Recovery
		facts.timelineEntries = len(res.Timeline)
	}
	return nil
}

// snapshotLiveMB is the heap one populated snapshot pins — what each of
// the snapshot cache's slots costs while it is held.
func snapshotLiveMB(p core.Profile) (float64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	snap, err := core.Populate(p)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(snap)
	return mb(float64(after.HeapAlloc) - float64(before.HeapAlloc)), nil
}
