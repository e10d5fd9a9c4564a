package core

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bluestore"
	"repro/internal/cluster"
	"repro/internal/erasure"
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

// invalidProfiles are mutations of DefaultProfile that Validate rejects,
// each with a fragment its error must carry (the field it names).
var invalidProfiles = []struct {
	want   string
	mutate func(*Profile)
}{
	{"hosts", func(p *Profile) { p.Cluster.Hosts = 0 }},
	{"k > 0", func(p *Profile) { p.Pool.K = 0 }},
	{"pg_num", func(p *Profile) { p.Pool.PGNum = 0 }},
	{"stripe_unit", func(p *Profile) { p.Pool.StripeUnit = 0 }},
	{"plugin", func(p *Profile) { p.Pool.Plugin = "made-up" }},
	{"failure domain", func(p *Profile) { p.Pool.FailureDomain = "continent" }},
	{"n=12", func(p *Profile) { p.Cluster.Hosts = 5 }}, // fewer than n with host domain
	{"count", func(p *Profile) { p.Workload.Objects = 0 }},
	{"cache scheme", func(p *Profile) { p.Backend.CacheScheme = "bogus" }},
	{"level", func(p *Profile) { p.Faults[0].Level = "rack" }},
	{"count", func(p *Profile) { p.Faults[0].Count = 0 }},
	{"locality", func(p *Profile) { p.Faults[0].Locality = "nearby" }},
	{"injection time", func(p *Profile) { p.Faults[0].AtSeconds = -1 }},
	{"exceed m", func(p *Profile) { p.Faults[0].Count = 99 }},
	// LRC(9,3,3) stores 15 chunks, not k+m = 12.
	{"n=15", func(p *Profile) { p.Pool.Plugin, p.Pool.D, p.Cluster.Hosts = "lrc", 3, 13 }},
	{"osds", func(p *Profile) {
		p.Faults = []FaultSpec{{Level: FaultLevelCorruption, OSDs: []int{1}, AtSeconds: 10}}
	}},
	{"mark_out_interval_seconds", func(p *Profile) { p.Tuning.MarkOutIntervalSeconds = -1 }},
	{"max_backfills", func(p *Profile) { p.Tuning.MaxBackfills = -1 }},
	{"recovery_max_active", func(p *Profile) { p.Tuning.RecoveryMaxActive = -1 }},
	{"recovery_bw_fraction", func(p *Profile) { p.Tuning.RecoveryBWFraction = -0.1 }},
	{"recovery_bw_fraction", func(p *Profile) { p.Tuning.RecoveryBWFraction = 1.5 }},
	{"network_gbps", func(p *Profile) { p.Cluster.NetworkGbps = -1 }},
	{"device_capacity_gb", func(p *Profile) { p.Cluster.DeviceCapacityGB = -1 }},
	{"cache_gb", func(p *Profile) { p.Backend.CacheGB = -1 }},
	{"min_alloc_size", func(p *Profile) { p.Backend.MinAllocSize = -1 }},
	{"custom_ratios kv", func(p *Profile) {
		p.Backend.CustomRatios = &bluestore.CacheConfig{KVRatio: -0.5, MetaRatio: 0.45, DataRatio: 0.10}
	}},
	{"racks", func(p *Profile) { p.Pool.FailureDomain = "rack" }},
	{"racks", func(p *Profile) { p.Cluster.Racks = -1 }},
	{"pool d", func(p *Profile) { p.Pool.D = -1 }},
	// A parameter beyond GF(2^8) must not reach a plugin's n arithmetic.
	{"256", func(p *Profile) { p.Pool.K = math.MaxInt }},
}

func TestProfileValidationRejects(t *testing.T) {
	for i, c := range invalidProfiles {
		p := DefaultProfile()
		c.mutate(&p)
		if err := p.Validate(); !errors.Is(err, ErrInvalidProfile) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("mutation %d: err = %v, want ErrInvalidProfile naming %q", i, err, c.want)
		}
	}
}

// tinyProfiles are the default profile and its Clay(12,9,11), LRC(9,3,3)
// and SHEC(9,3) variants at a size that runs in milliseconds.
func tinyProfiles() []Profile {
	rs := DefaultProfile()
	rs.Pool.PGNum = 16
	rs.Pool.StripeUnit = 64 << 10
	rs.Workload.Objects = 8
	rs.Workload.ObjectSize = 1 << 20
	clay, lrc, shec := rs, rs, rs
	clay.Pool.Plugin, clay.Pool.D = "clay", 11
	lrc.Pool.Plugin, lrc.Pool.D = "lrc", 3
	shec.Pool.Plugin = "shec"
	return []Profile{rs, clay, lrc, shec}
}

// TestWAReportsCodeN checks that the §4.4 report takes n from the pool's
// code: LRC(9,3,3) stores 15 chunks, not k+m = 12.
func TestWAReportsCodeN(t *testing.T) {
	for i, want := range []int{12, 12, 15, 12} {
		p := tinyProfiles()[i]
		res, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.WA.N != want {
			t.Errorf("%s: WA n = %d, want %d", p.Pool.Plugin, res.WA.N, want)
		}
	}
}

// FuzzLoadProfile drives the whole profile document through LoadProfile:
// bytes that do not decode as a profile fail to parse, a profile Validate
// rejects fails with ErrInvalidProfile, and an accepted one has a Layout
// and, within the caps below, runs to a result or an error — never a
// panic or a hang.
func FuzzLoadProfile(f *testing.F) {
	add := func(p Profile) {
		data, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, p := range tinyProfiles() {
		add(p)
	}
	for _, c := range invalidProfiles {
		p := DefaultProfile()
		c.mutate(&p)
		add(p)
	}
	path := filepath.Join(f.TempDir(), "profile.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := LoadProfile(path)
		if err != nil {
			if json.Unmarshal(data, new(Profile)) == nil && !errors.Is(err, ErrInvalidProfile) {
				t.Fatalf("profile rejected without ErrInvalidProfile: %v", err)
			}
			return
		}
		l, err := p.Layout()
		if err != nil {
			t.Fatalf("accepted profile has no layout: %v", err)
		}
		if l.Hosts > 40 || l.OSDsPerHost > 3 || l.Pool.PGNum > 64 || l.Pool.K+l.Pool.M > 16 ||
			l.Workload.Objects > 16 || l.Workload.ObjectSize > 1<<20 {
			return
		}
		res, err := Run(p)
		if (res == nil) == (err == nil) {
			t.Fatalf("Run returned (%v, %v)", res, err)
		}
	})
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

// TestTuningReachesCluster: each TuningSpec field arrives in the cluster
// config the EC manager builds, as the cluster runs with it once New has
// normalized it (cluster.TestPartialTuningRecovers): unchanged (the
// mark-out interval as a duration), a zero field as Ceph's default. And
// ScaleWorkload divides the default mark-out interval when the profile
// leaves it unset.
func TestTuningReachesCluster(t *testing.T) {
	defaults := cluster.Tuning{MarkOutInterval: 600 * time.Second, MaxBackfills: 1, RecoveryMaxActive: 10, RecoveryBWFraction: 0.13}
	clusterTuning := func(spec TuningSpec) cluster.Tuning {
		t.Helper()
		p := fastProfile()
		p.Tuning = spec
		mgr, err := NewECManager(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := mgr.ClusterConfig(nil)
		if err != nil {
			t.Fatal(err)
		}
		return cfg.Tuning.Normalize()
	}
	if got := clusterTuning(TuningSpec{}); got != defaults {
		t.Fatalf("zero tuning reached the cluster as %+v, want %+v", got, defaults)
	}
	markOut, backfills, active, fraction := defaults, defaults, defaults, defaults
	markOut.MarkOutInterval = 42500 * time.Millisecond
	backfills.MaxBackfills = 3
	active.RecoveryMaxActive = 7
	fraction.RecoveryBWFraction = 0.4
	all := cluster.Tuning{MarkOutInterval: 42500 * time.Millisecond, MaxBackfills: 3, RecoveryMaxActive: 7, RecoveryBWFraction: 0.4}
	for _, tc := range []struct {
		spec TuningSpec
		want cluster.Tuning
	}{
		{TuningSpec{MarkOutIntervalSeconds: 42.5}, markOut},
		{TuningSpec{MaxBackfills: 3}, backfills},
		{TuningSpec{RecoveryMaxActive: 7}, active},
		{TuningSpec{RecoveryBWFraction: 0.4}, fraction},
		{TuningSpec{MarkOutIntervalSeconds: 42.5, MaxBackfills: 3, RecoveryMaxActive: 7, RecoveryBWFraction: 0.4}, all},
	} {
		if got := clusterTuning(tc.spec); got != tc.want {
			t.Errorf("%+v reached the cluster as %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	p := fastProfile()
	p.Tuning = TuningSpec{}
	if got, want := p.ScaleWorkload(20).Tuning.MarkOutIntervalSeconds, defaults.MarkOutInterval.Seconds()/20; got != want {
		t.Fatalf("ScaleWorkload(20) mark-out = %v s, want %v s", got, want)
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	orig := ClayProfile()
	data, err := json.MarshalIndent(orig, "", "  ") // as ecfault -clay writes it
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
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

// TestProfileCoversTable1 pins the configuration surface of Table 1 that a
// profile reaches: every value listed of each dimension passes Validate,
// every registered plugin included, and the fault levels are exactly the
// ones Validate accepts.
func TestProfileCoversTable1(t *testing.T) {
	accepts := func(dim string, edit func(*Profile)) {
		t.Helper()
		p := DefaultProfile()
		p.Cluster.Racks = 15 // enough racks for an acting set of 15
		edit(&p)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", dim, err)
		}
	}
	for _, scheme := range []string{SchemeKVOptimized, SchemeDataOptimized, SchemeAutotune} {
		accepts("bluestore cache "+scheme, func(p *Profile) { p.Backend.CacheScheme = scheme })
	}
	accepts("bluestore cache custom ratios", func(p *Profile) {
		p.Backend.CacheScheme, p.Backend.CustomRatios = "custom", &bluestore.CacheConfig{KVRatio: 1, MetaRatio: 1, DataRatio: 2}
	})
	accepts("pg_num", func(p *Profile) { p.Pool.PGNum = 1 })
	plugins := erasure.Plugins()
	if !slices.Contains(plugins, "clay") || !slices.Contains(plugins, "jerasure_reed_sol_van") {
		t.Fatalf("plugins missing: %v", plugins)
	}
	for _, plugin := range plugins {
		accepts("ec plugin "+plugin, func(p *Profile) { p.Pool.Plugin, p.Pool.K, p.Pool.M = plugin, 8, 4 })
	}
	accepts("ec parameters", func(p *Profile) {
		p.Pool.Plugin, p.Pool.K, p.Pool.M, p.Pool.D, p.Pool.StripeUnit = "clay", 4, 2, 5, 4096
	})
	for _, domain := range []string{"osd", "host", "rack"} {
		accepts("failure domain "+domain, func(p *Profile) { p.Pool.FailureDomain = domain })
	}
	for _, level := range []string{FaultLevelNode, FaultLevelDevice, FaultLevelCorruption} {
		accepts("fault level "+level, func(p *Profile) { p.Faults = []FaultSpec{{Level: level, Count: 1, AtSeconds: 10}} })
	}
	p := DefaultProfile()
	p.Faults = []FaultSpec{{Level: "rack", Count: 1, AtSeconds: 10}}
	if err := p.Validate(); !errors.Is(err, ErrInvalidProfile) {
		t.Fatalf("fault level rack: %v, want ErrInvalidProfile", err)
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
		case e.Category == logsys.CatRecovery && strings.Contains(e.Message, "start recovery I/O"):
			sawStart = true
		case e.Category == logsys.CatRecovery && strings.Contains(e.Message, "recovery completed"):
			sawComplete = true
		}
	}
	if !sawDetect || !sawHeartbeat || !sawStart || !sawComplete {
		t.Fatalf("timeline missing phases: detect=%v hb=%v start=%v complete=%v",
			sawDetect, sawHeartbeat, sawStart, sawComplete)
	}
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
	if _, _, err := co.populate(); err != nil {
		t.Fatal(err)
	}
	inj := NewFaultInjector(co.cluster, p.Pool.Name)

	same, err := inj.plan(FaultSpec{Level: FaultLevelDevice, Count: 3, Locality: LocalitySameHost, AtSeconds: 1}, map[int]bool{})
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[string]bool{}
	for _, id := range same.OSDs {
		hosts[co.cluster.Crush().HostOf(id)] = true
	}
	if len(same.OSDs) != 3 || len(hosts) != 1 {
		t.Fatalf("same-host plan: %v over %d hosts", same.OSDs, len(hosts))
	}

	diff, err := inj.plan(FaultSpec{Level: FaultLevelDevice, Count: 3, Locality: LocalityDiffHosts, AtSeconds: 1}, map[int]bool{})
	if err != nil {
		t.Fatal(err)
	}
	hosts = map[string]bool{}
	for _, id := range diff.OSDs {
		hosts[co.cluster.Crush().HostOf(id)] = true
	}
	if len(diff.OSDs) != 3 || len(hosts) != 3 {
		t.Fatalf("diff-hosts plan: %v over %d hosts", diff.OSDs, len(hosts))
	}

	node, err := inj.plan(FaultSpec{Level: FaultLevelNode, Count: 1, AtSeconds: 1}, map[int]bool{})
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
	if _, _, err := co.populate(); err != nil {
		t.Fatal(err)
	}
	inj := NewFaultInjector(co.cluster, p.Pool.Name)
	// Explicitly target 4 OSDs hosting one PG's chunks: beyond m=2.
	pool, _ := co.cluster.Pool(p.Pool.Name)
	var victim []int
	for _, pg := range pool.PGs {
		if len(pg.Objects) > 0 {
			victim = pg.Acting[:4]
			break
		}
	}
	if _, err := inj.plan(FaultSpec{Level: FaultLevelDevice, OSDs: victim, AtSeconds: 1}, map[int]bool{}); !errors.Is(err, ErrExceedsTolerance) {
		t.Fatalf("guard did not trip: %v", err)
	}
}

// TestDeviceFaultRemovesItsTargets: a fault removes exactly the devices
// it plans to, through the injector alone: a device-level fault its
// targets, a node-level fault every device of the host, a fault-free run
// none.
func TestDeviceFaultRemovesItsTargets(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults []FaultSpec
	}{
		{"two device faults", []FaultSpec{{Level: FaultLevelDevice, Count: 2, Locality: LocalityDiffHosts, AtSeconds: 10}}},
		{"node fault", fastProfile().Faults},
		{"fault-free", nil},
	} {
		p := fastProfile()
		p.Faults = tc.faults
		co, err := NewCoordinator(p)
		if err != nil {
			t.Fatal(err)
		}
		res, contents, err := co.populate()
		if err != nil {
			t.Fatal(err)
		}
		plans, err := NewFaultInjector(co.cluster, p.Pool.Name).PlanAll(p.Faults)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := co.finish(res, contents); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var want, removed []int
		for _, pf := range plans {
			want = append(want, pf.OSDs...)
		}
		slices.Sort(want)
		for _, osd := range co.cluster.OSDs() {
			if osd.Store.Device().Removed() {
				removed = append(removed, osd.ID)
			}
		}
		if !slices.Equal(removed, want) {
			t.Fatalf("%s: removed devices %v, planned %v", tc.name, removed, want)
		}
		crush := co.cluster.Crush()
		switch tc.name {
		case "two device faults":
			if len(want) != 2 || crush.HostOf(want[0]) == crush.HostOf(want[1]) {
				t.Fatalf("diff-hosts plan %v", want)
			}
		case "node fault":
			host := slices.Clone(crush.OSDsOnHost(crush.HostOf(want[0])))
			slices.Sort(host)
			if !slices.Equal(want, host) {
				t.Fatalf("node plan %v, the host holds %v", want, host)
			}
		}
	}
}

func TestECManagerRejectsInvalidProfile(t *testing.T) {
	p := DefaultProfile()
	p.Pool.K = 0
	if _, err := NewECManager(p); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

func TestNewCoordinatorRejectsInvalidProfile(t *testing.T) {
	p := DefaultProfile()
	p.Workload.Objects = 0
	if _, err := NewCoordinator(p); err == nil {
		t.Fatal("invalid profile accepted")
	}
}
