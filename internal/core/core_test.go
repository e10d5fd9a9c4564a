package core

import (
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/logsys"
)

// fastProfile is a scaled-down paper profile for quick tests.
func fastProfile() Profile {
	p := DefaultProfile()
	p.Cluster.Hosts = 15
	p.Cluster.DeviceCapacityGB = 8
	p.Pool.PGNum = 32
	p.Workload.Objects = 60
	p.Workload.ObjectSize = 8 << 20
	return p
}

func TestDefaultProfileValid(t *testing.T) {
	p := DefaultProfile()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	c := ClayProfile()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Pool.Plugin != "clay" || c.Pool.D != 11 {
		t.Fatalf("clay profile: %+v", c.Pool)
	}
}

func TestProfileValidationRejects(t *testing.T) {
	mutations := []func(*Profile){
		func(p *Profile) { p.Cluster.Hosts = 0 },
		func(p *Profile) { p.Pool.K = 0 },
		func(p *Profile) { p.Pool.PGNum = 0 },
		func(p *Profile) { p.Pool.StripeUnit = 0 },
		func(p *Profile) { p.Pool.Plugin = "made-up" },
		func(p *Profile) { p.Pool.FailureDomain = "continent" },
		func(p *Profile) { p.Cluster.Hosts = 5 }, // fewer than n with host domain
		func(p *Profile) { p.Workload.Objects = 0 },
		func(p *Profile) { p.Backend.CacheScheme = "bogus" },
		func(p *Profile) { p.Faults[0].Level = "rack" },
		func(p *Profile) { p.Faults[0].Count = 0 },
		func(p *Profile) { p.Faults[0].Locality = "nearby" },
		func(p *Profile) { p.Faults[0].AtSeconds = -1 },
		func(p *Profile) { p.Faults[0].Count = 99 }, // beyond m
	}
	for i, mutate := range mutations {
		p := DefaultProfile()
		mutate(&p)
		if err := p.Validate(); !errors.Is(err, ErrInvalidProfile) {
			t.Errorf("mutation %d: err = %v", i, err)
		}
	}
}

func TestScaleWorkload(t *testing.T) {
	p := DefaultProfile().ScaleWorkload(100)
	if p.Workload.Objects != 100 {
		t.Fatalf("scaled objects = %d", p.Workload.Objects)
	}
	if DefaultProfile().ScaleWorkload(1_000_000).Workload.Objects != 1 {
		t.Fatal("floor at 1")
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	orig := ClayProfile()
	if err := SaveProfile(orig, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pool != orig.Pool || got.Cluster != orig.Cluster || got.Workload != orig.Workload {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := LoadProfile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestProfileCoversTable1 pins the configuration surface of Table 1.
func TestProfileCoversTable1(t *testing.T) {
	surface := ConfigSurface()
	for _, dim := range []string{"bluestore cache", "pg_num", "ec plugin", "ec technique", "failure domain", "ec parameters"} {
		if len(surface[dim]) == 0 {
			t.Errorf("configuration dimension %q not covered", dim)
		}
	}
	plugins := surface["ec plugin"]
	hasClay, hasRS := false, false
	for _, p := range plugins {
		if p == "clay" {
			hasClay = true
		}
		if p == "jerasure_reed_sol_van" {
			hasRS = true
		}
	}
	if !hasClay || !hasRS {
		t.Fatalf("plugins missing: %v", plugins)
	}
}

func TestECManagerCacheSchemes(t *testing.T) {
	for _, scheme := range []string{SchemeKVOptimized, SchemeDataOptimized, SchemeAutotune} {
		p := fastProfile()
		p.Backend.CacheScheme = scheme
		mgr, err := NewECManager(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := mgr.ClusterConfig(nil)
		if err != nil {
			t.Fatal(err)
		}
		if scheme == SchemeKVOptimized && cfg.Store.Cache.KVRatio != 0.70 {
			t.Fatalf("kv-optimized ratios wrong: %+v", cfg.Store.Cache)
		}
		if scheme == SchemeAutotune && !cfg.Store.Cache.Autotune {
			t.Fatal("autotune flag not set")
		}
	}
}

func TestEndToEndExperiment(t *testing.T) {
	res, err := Run(fastProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery == nil || !res.Recovery.Done() {
		t.Fatal("recovery missing")
	}
	if res.Recovery.RepairedChunks == 0 {
		t.Fatal("nothing repaired")
	}
	if res.WA.Measured <= res.WA.Theoretical {
		t.Fatalf("measured WA %.3f should exceed theory %.3f", res.WA.Measured, res.WA.Theoretical)
	}
	if res.WA.Measured < res.WA.FormulaBound {
		t.Fatalf("measured WA %.3f below the formula lower bound %.3f", res.WA.Measured, res.WA.FormulaBound)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline entries")
	}
	if res.LogLinesShipped == 0 {
		t.Fatal("no log lines shipped")
	}
	if len(res.IOSamples) == 0 {
		t.Fatal("no iostat samples")
	}
	// The Figure 3 anatomy: failure detected, then checking, then
	// recovery I/O, then completion — all visible in the merged logs.
	var sawDetect, sawHeartbeat, sawStart, sawComplete bool
	for _, e := range res.Timeline {
		switch {
		case e.Category == logsys.CatFailure:
			sawDetect = true
		case e.Category == logsys.CatHeartbeat:
			sawHeartbeat = true
		case e.Category == logsys.CatRecovery && contains(e.Message, "start recovery I/O"):
			sawStart = true
		case e.Category == logsys.CatRecovery && contains(e.Message, "recovery completed"):
			sawComplete = true
		}
	}
	if !sawDetect || !sawHeartbeat || !sawStart || !sawComplete {
		t.Fatalf("timeline missing phases: detect=%v hb=%v start=%v complete=%v",
			sawDetect, sawHeartbeat, sawStart, sawComplete)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

func TestEndToEndPayloadVerification(t *testing.T) {
	p := fastProfile()
	p.Workload.Objects = 16
	p.Workload.ObjectSize = 256 << 10
	p.Pool.StripeUnit = 64 << 10 // keep padded chunks small for real bytes
	p.Workload.Payload = true
	p.Faults = []FaultSpec{{Level: FaultLevelDevice, Count: 1, AtSeconds: 5}}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PayloadVerified {
		t.Fatalf("payload verification failed: %d errors", res.PayloadErrors)
	}
}

func TestFaultInjectorLocalities(t *testing.T) {
	p := fastProfile()
	p.Cluster.OSDsPerHost = 3
	p.Pool.FailureDomain = "osd"
	co, err := NewCoordinator(p)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if _, _, err := co.populate(); err != nil {
		t.Fatal(err)
	}
	inj := NewFaultInjector(co.Cluster(), p.Pool.Name)

	same, err := inj.Plan(FaultSpec{Level: FaultLevelDevice, Count: 3, Locality: LocalitySameHost, AtSeconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[string]bool{}
	for _, id := range same.OSDs {
		hosts[co.Cluster().Crush().HostOf(id)] = true
	}
	if len(same.OSDs) != 3 || len(hosts) != 1 {
		t.Fatalf("same-host plan: %v over %d hosts", same.OSDs, len(hosts))
	}

	diff, err := inj.Plan(FaultSpec{Level: FaultLevelDevice, Count: 3, Locality: LocalityDiffHosts, AtSeconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	hosts = map[string]bool{}
	for _, id := range diff.OSDs {
		hosts[co.Cluster().Crush().HostOf(id)] = true
	}
	if len(diff.OSDs) != 3 || len(hosts) != 3 {
		t.Fatalf("diff-hosts plan: %v over %d hosts", diff.OSDs, len(hosts))
	}

	node, err := inj.Plan(FaultSpec{Level: FaultLevelNode, Count: 1, AtSeconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(node.OSDs) != 3 {
		t.Fatalf("node plan should cover the host's 3 OSDs: %v", node.OSDs)
	}
}

// TestFaultInjectorWhiteBoxGuard ensures plans that would exceed the
// fault tolerance are refused.
func TestFaultInjectorWhiteBoxGuard(t *testing.T) {
	p := fastProfile()
	p.Cluster.OSDsPerHost = 4
	p.Pool.K = 4
	p.Pool.M = 2
	p.Pool.FailureDomain = "osd"
	co, err := NewCoordinator(p)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if _, _, err := co.populate(); err != nil {
		t.Fatal(err)
	}
	inj := NewFaultInjector(co.Cluster(), p.Pool.Name)
	// Explicitly target 4 OSDs hosting one PG's chunks: beyond m=2.
	pool, _ := co.Cluster().Pool(p.Pool.Name)
	var victim []int
	for _, pg := range pool.PGs {
		if len(pg.Objects) > 0 {
			victim = pg.Acting[:4]
			break
		}
	}
	if _, err := inj.Plan(FaultSpec{Level: FaultLevelDevice, OSDs: victim, AtSeconds: 1}); !errors.Is(err, ErrExceedsTolerance) {
		t.Fatalf("guard did not trip: %v", err)
	}
}

// TestWorkerProvisioningAndDeviceFault pins provisioning on demand: a
// worker starts and a device is exported over NVMe-oF when DeviceWorker
// first asks, once, and a run starts exactly the workers its device
// faults target.
func TestWorkerProvisioningAndDeviceFault(t *testing.T) {
	p := fastProfile()
	co, err := NewCoordinator(p)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if len(co.workers) != 0 {
		t.Fatalf("fresh coordinator started %d workers", len(co.workers))
	}
	osd := co.Cluster().OSD(0)
	w, err := co.DeviceWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := co.DeviceWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	if again != w || co.workers[osd.Host] != w || len(co.workers) != 1 {
		t.Fatalf("second DeviceWorker(0) gave %p, first %p, %d workers", again, w, len(co.workers))
	}
	if ids := w.Provisioned(); len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("provisioned = %v, want [0]", ids)
	}
	if _, err := co.DeviceWorker(len(co.Cluster().OSDs())); err == nil {
		t.Fatal("DeviceWorker accepted an OSD id outside the cluster")
	}
	if !w.DeviceAlive(0) {
		t.Fatal("device should be alive after provisioning")
	}
	if err := w.FailDevice(0); err != nil {
		t.Fatal(err)
	}
	if w.DeviceAlive(0) {
		t.Fatal("device alive after subsystem removal")
	}
	if !osd.Store.Device().Removed() {
		t.Fatal("backing device not removed")
	}

	// What a run starts: one worker per device-fault target, none for a
	// node-level fault or a fault-free profile.
	devFaults := []FaultSpec{{Level: FaultLevelDevice, Count: 2, Locality: LocalityDiffHosts, AtSeconds: 10}}
	for _, tc := range []struct {
		name    string
		faults  []FaultSpec
		workers int
	}{
		{"two device faults", devFaults, 2},
		{"node fault", fastProfile().Faults, 0},
		{"fault-free", nil, 0},
	} {
		p := fastProfile()
		p.Faults = tc.faults
		run, err := NewCoordinator(p)
		if err != nil {
			t.Fatal(err)
		}
		res, contents, err := run.populate()
		if err == nil {
			_, err = run.finish(res, contents)
		}
		if err != nil {
			run.Close()
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(run.workers) != tc.workers {
			t.Errorf("%s: run started %d workers, want %d", tc.name, len(run.workers), tc.workers)
		}
		for host, w := range run.workers {
			if ids := w.Provisioned(); len(ids) != 1 || !run.Cluster().OSD(ids[0]).Store.Device().Removed() {
				t.Errorf("%s: worker %s exports %v, want its one failed device", tc.name, host, ids)
			}
		}
		run.Close()
	}

	// No listener, association or serving goroutine outlives a Run.
	baseline := runtime.NumGoroutine()
	p.Faults = devFaults
	if _, err := Run(p); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after Run, %d before", n, baseline)
	}
}
