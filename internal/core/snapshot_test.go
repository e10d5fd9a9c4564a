package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/bluestore"
	"repro/internal/cluster"
)

// layoutOfProfile returns a profile's Layout, failing the test on error.
func layoutOfProfile(t *testing.T, p Profile) Layout {
	t.Helper()
	l, err := p.Layout()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLayoutGroupsCells(t *testing.T) {
	base := fastProfile()
	key := layoutOfProfile(t, base)

	// Recovery-side changes keep the key.
	same := []func(*Profile){
		func(p *Profile) { p.Name = "renamed" },
		func(p *Profile) { p.Backend.CacheScheme = SchemeKVOptimized },
		func(p *Profile) { p.Backend.CacheGB = 1 },
		func(p *Profile) { p.Cluster.NetworkGbps = 10 },
		func(p *Profile) { p.Faults = nil },
		func(p *Profile) { p.Faults[0].Level = FaultLevelDevice },
		func(p *Profile) { p.Tuning.MarkOutIntervalSeconds = 60 },
		func(p *Profile) { p.Tuning.MaxBackfills = 4 },
	}
	for i, mutate := range same {
		p := fastProfile()
		mutate(&p)
		if layoutOfProfile(t, p) != key {
			t.Errorf("recovery-side mutation %d changed the layout", i)
		}
	}

	// Layout-relevant changes must change the key.
	diff := []func(*Profile){
		func(p *Profile) { p.Cluster.Hosts = 16 },
		func(p *Profile) { p.Cluster.OSDsPerHost = 3 },
		func(p *Profile) { p.Cluster.DeviceCapacityGB = 16 },
		func(p *Profile) { p.Cluster.Racks = 3 },
		func(p *Profile) { p.Pool.Plugin = "clay" },
		func(p *Profile) { p.Pool.K = 8 },
		func(p *Profile) { p.Pool.M = 4 },
		func(p *Profile) { p.Pool.PGNum = 64 },
		func(p *Profile) { p.Pool.StripeUnit = 4096 },
		func(p *Profile) { p.Pool.FailureDomain = "osd" },
		func(p *Profile) { p.Backend.MinAllocSize = 65536 },
		func(p *Profile) { p.Workload.Objects = 61 },
		func(p *Profile) { p.Workload.ObjectSize = 4 << 20 },
		func(p *Profile) { p.Workload.SizeJitter = 0.1 },
		func(p *Profile) { p.Workload.Seed = 99 },
		func(p *Profile) { p.Workload.Payload = true },
	}
	for i, mutate := range diff {
		p := fastProfile()
		mutate(&p)
		if layoutOfProfile(t, p) == key {
			t.Errorf("layout mutation %d did not change the layout", i)
		}
	}

	// Normalization: an implied D and its spelled-out default share a
	// layout (Clay k+m-1, LRC two groups, SHEC ceil(m/2)).
	for _, pc := range []struct {
		plugin  string
		k, m, d int
	}{
		{"clay", base.Pool.K, base.Pool.M, base.Pool.K + base.Pool.M - 1},
		{"lrc", 8, base.Pool.M, 2}, // two groups must divide k
		{"shec", 9, 5, 3},
	} {
		c1 := fastProfile()
		c1.Pool.Plugin, c1.Pool.K, c1.Pool.M = pc.plugin, pc.k, pc.m
		c2 := c1
		c2.Pool.D = pc.d
		if layoutOfProfile(t, c1) != layoutOfProfile(t, c2) {
			t.Errorf("%s D normalization broken: D=0 and D=%d differ", pc.plugin, pc.d)
		}
	}
	// Failure domain "" and "host" share a layout, and so do an unset
	// device capacity and min_alloc and their defaults.
	f1 := fastProfile()
	f1.Pool.FailureDomain = ""
	f2 := fastProfile()
	f2.Pool.FailureDomain = "host"
	if layoutOfProfile(t, f1) != layoutOfProfile(t, f2) {
		t.Error("failure-domain normalization broken")
	}
	d1, d2 := fastProfile(), fastProfile()
	d1.Cluster.DeviceCapacityGB, d1.Backend.MinAllocSize = 0, 0
	d2.Cluster.DeviceCapacityGB = int(cluster.DefaultConfig().DeviceCapacity >> 30)
	d2.Backend.MinAllocSize = bluestore.DefaultConfig().MinAllocSize
	if layoutOfProfile(t, d1) != layoutOfProfile(t, d2) {
		t.Error("device capacity or min_alloc normalization broken")
	}
}

// coldRun runs a profile on its own freshly built root cluster, with no
// snapshot and no fork in between: the oracle forked runs are compared
// with, now that Run itself forks.
func coldRun(t *testing.T, p Profile) *Result {
	t.Helper()
	co, err := NewCoordinator(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// compareResults fails the test for every observable of a result that
// differs from its cold twin's.
func compareResults(t *testing.T, cold, got *Result) {
	t.Helper()
	for _, f := range []struct {
		name      string
		cold, got any
	}{
		{"Recovery", cold.Recovery, got.Recovery},
		{"WA", cold.WA, got.WA},
		{"UsedBytes", cold.UsedBytes, got.UsedBytes},
		{"WrittenBytes", cold.WrittenBytes, got.WrittenBytes},
		{"LogLinesShipped", cold.LogLinesShipped, got.LogLinesShipped},
		{"LogLinesDropped", cold.LogLinesDropped, got.LogLinesDropped},
		{"IOSamples", cold.IOSamples, got.IOSamples},
		{"Timeline", cold.Timeline, got.Timeline},
		{"PayloadVerified", cold.PayloadVerified, got.PayloadVerified},
		{"PayloadErrors", cold.PayloadErrors, got.PayloadErrors},
		{"Scrub", cold.Scrub, got.Scrub},
		{"RepairedInconsistent", cold.RepairedInconsistent, got.RepairedInconsistent},
	} {
		if !reflect.DeepEqual(f.cold, f.got) {
			t.Errorf("%s diverged:\ncold %+v\ngot  %+v", f.name, f.cold, f.got)
		}
	}
}

// TestSnapshotRunMatchesFreshRun is the core bit-identity check: Run,
// which populates and then forks, must produce exactly what an unforked
// run on a root cluster produces — recovery result, WA, byte and log
// counts, iostat samples, merged timeline, payload verdict and scrub
// report — on every kind of profile.
func TestSnapshotRunMatchesFreshRun(t *testing.T) {
	payload := func(p *Profile) {
		p.Workload.Objects = 16
		p.Workload.ObjectSize = 256 << 10
		p.Pool.StripeUnit = 64 << 10 // keep padded chunks small for real bytes
		p.Workload.Payload = true
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Profile)
	}{
		{"node fault", func(*Profile) {}},
		{"device faults", func(p *Profile) {
			p.Faults = []FaultSpec{{Level: FaultLevelDevice, Count: 2, Locality: LocalityDiffHosts, AtSeconds: 10}}
		}},
		{"fault-free WA only", func(p *Profile) { p.Faults = nil }},
		{"payload, device fault", func(p *Profile) {
			payload(p)
			p.Faults = []FaultSpec{{Level: FaultLevelDevice, Count: 1, AtSeconds: 5}}
		}},
		{"payload, corruption repaired in place", func(p *Profile) {
			payload(p)
			p.Faults = []FaultSpec{{Level: FaultLevelCorruption, Count: 5, AtSeconds: 1}}
		}},
		{"corruption + device fault", func(p *Profile) {
			p.Workload.Objects = 24
			p.Faults = []FaultSpec{
				{Level: FaultLevelCorruption, Count: 3, AtSeconds: 1},
				{Level: FaultLevelDevice, Count: 1, AtSeconds: 5},
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := fastProfile()
			tc.mutate(&p)
			got, err := Run(p)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, coldRun(t, p), got)
		})
	}
}

// TestForkAfterForkMatchesColdRun: a finished run hands its backlog
// slab, repair records and iostat buffer to the next, so a fork that
// follows a larger one starts on that run's storage. On one snapshot of
// Fig. 2d's Clay layout (three OSDs per host, failure domain osd) the
// three-diff-host cell runs, then the profile's default one-host failure,
// then both at once on two goroutines; every result must equal the cold
// run of its profile, and still does once every run is done, so none
// shares storage a later run reused.
func TestForkAfterForkMatchesColdRun(t *testing.T) {
	cell := func(name string, faults []FaultSpec) Profile {
		p := ClayProfile()
		p.Name = name
		p.Cluster.OSDsPerHost = 3
		p.Pool.FailureDomain = "osd"
		p.Faults = faults
		return p
	}
	ps := []Profile{
		cell("fig2d-3-diff-hosts-clay", []FaultSpec{{Level: FaultLevelDevice, Count: 3, Locality: LocalityDiffHosts, AtSeconds: 10}}),
		cell("fig2d-layout-default-faults", DefaultProfile().Faults),
	}
	snap, err := Populate(ps[0])
	if err != nil {
		t.Fatal(err)
	}
	cold := make([]*Result, len(ps))
	for i, p := range ps {
		cold[i] = coldRun(t, p)
	}
	serial := make([]*Result, len(ps))
	for i, p := range ps {
		if serial[i], err = snap.Run(p); err != nil {
			t.Fatal(err)
		}
		compareResults(t, cold[i], serial[i])
	}
	parallel := make([]*Result, len(ps))
	errs := make([]error, len(ps))
	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parallel[i], errs[i] = snap.Run(p)
		}()
	}
	wg.Wait()
	for i := range ps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		compareResults(t, cold[i], parallel[i])
		compareResults(t, cold[i], serial[i])
	}
}

// TestSnapshotSharedAcrossCacheSchemes exercises the fig2a pattern: one
// populate serving cells that differ only in the cache scheme, each
// matching its fresh-built twin.
func TestSnapshotSharedAcrossCacheSchemes(t *testing.T) {
	base := fastProfile()
	snap, err := Populate(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{SchemeKVOptimized, SchemeDataOptimized, SchemeAutotune} {
		p := fastProfile()
		p.Name = "cell-" + scheme
		p.Backend.CacheScheme = scheme
		if layoutOfProfile(t, p) != snap.layout {
			t.Fatalf("scheme %s changed the layout", scheme)
		}
		forked, err := snap.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if fresh := coldRun(t, p); *fresh.Recovery != *forked.Recovery {
			t.Fatalf("scheme %s diverged:\nfresh %+v\nfork  %+v", scheme, fresh.Recovery, forked.Recovery)
		}
	}
}

func TestSnapshotRunPayloadVerification(t *testing.T) {
	p := fastProfile()
	p.Workload.Objects = 6
	p.Workload.ObjectSize = 64 << 10
	p.Workload.Payload = true
	snap, err := Populate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := snap.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PayloadVerified || res.PayloadErrors != 0 {
		t.Fatalf("payload verification failed on fork: %+v", res)
	}
	// A second fork must verify too (shared contents, isolated stores).
	res2, err := snap.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.PayloadVerified {
		t.Fatal("second fork failed payload verification")
	}
}

func TestSnapshotRunRejectsLayoutMismatch(t *testing.T) {
	snap, err := Populate(fastProfile())
	if err != nil {
		t.Fatal(err)
	}
	p := fastProfile()
	p.Workload.Objects = 61
	if _, err := snap.Run(p); err == nil {
		t.Fatal("layout mismatch accepted")
	}
}

func TestSnapshotRunDeviceFaultProvisionsLazily(t *testing.T) {
	p := fastProfile()
	p.Faults = []FaultSpec{{Level: FaultLevelDevice, Count: 2, Locality: LocalityDiffHosts, AtSeconds: 10}}
	snap, err := Populate(p)
	if err != nil {
		t.Fatal(err)
	}
	forked, err := snap.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if fresh := coldRun(t, p); *fresh.Recovery != *forked.Recovery {
		t.Fatalf("device-fault cell diverged:\nfresh %+v\nfork  %+v", fresh.Recovery, forked.Recovery)
	}
}
