package core

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
)

// TestFaultListBadTargetsAreErrors: a fault list that passes Validate but
// names targets the cluster does not have, or the same target twice, is a
// planning error — it used to be an index panic in InjectOSDFailures and
// a "no such subsystem" from the second FailDevice.
func TestFaultListBadTargetsAreErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults []FaultSpec
	}{
		{"osd id past the cluster", []FaultSpec{{Level: FaultLevelNode, OSDs: []int{999}}}},
		{"negative osd id", []FaultSpec{{Level: FaultLevelDevice, OSDs: []int{-1}}}},
		{"one id twice in a spec", []FaultSpec{{Level: FaultLevelDevice, OSDs: []int{3, 3}}}},
		{"one id in two specs", []FaultSpec{{Level: FaultLevelDevice, OSDs: []int{3}}, {Level: FaultLevelNode, OSDs: []int{3}}}},
	} {
		p := fastProfile()
		p.Faults = tc.faults
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: Validate rejects it, the case tests nothing: %v", tc.name, err)
		}
		if _, err := Run(p); !errors.Is(err, ErrInvalidProfile) {
			t.Fatalf("%s: Run returned %v, want an ErrInvalidProfile", tc.name, err)
		}
	}
}

// TestFaultListPlansCumulatively: every spec of a list picks among the
// OSDs the earlier ones left, so two specs that would each take the
// heaviest device fail two devices, through two subsystems.
func TestFaultListPlansCumulatively(t *testing.T) {
	p := fastProfile()
	p.Cluster.OSDsPerHost = 3
	p.Pool.FailureDomain = "osd"
	specs := []FaultSpec{
		{Level: FaultLevelDevice, Count: 1, AtSeconds: 5},
		{Level: FaultLevelDevice, Count: 1, Locality: LocalityDiffHosts, AtSeconds: 5},
		{Level: FaultLevelDevice, Count: 1, Locality: LocalitySameHost, AtSeconds: 5},
	}
	s, err := Populate(p)
	if err != nil {
		t.Fatal(err)
	}
	co, err := s.coordinator(p)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewFaultInjector(co.cluster, p.Pool.Name)
	alone, err := inj.plan(specs[0], map[int]bool{})
	if err != nil {
		t.Fatal(err)
	}
	plans, err := inj.PlanAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	var all []int
	for _, pf := range plans {
		all = append(all, pf.OSDs...)
	}
	slices.Sort(all)
	if len(all) != 3 || len(slices.Compact(all)) != 3 {
		t.Fatalf("plans overlap: %v, %v, %v", plans[0].OSDs, plans[1].OSDs, plans[2].OSDs)
	}
	if !slices.Equal(plans[0].OSDs, alone.OSDs) {
		t.Fatalf("first spec of a list planned %v, alone %v", plans[0].OSDs, alone.OSDs)
	}

	p.Faults = specs
	res, err := s.Run(p)
	if err != nil {
		t.Fatalf("overlapping device specs: %v", err)
	}
	if res.Recovery == nil || res.Recovery.RepairedChunks == 0 {
		t.Fatal("three device faults repaired nothing")
	}
}

// TestFaultListGuardedAsAWhole: the white-box guard (§3.2) runs over the
// union of a list's targets. Two specs that each stay within a PG's
// tolerance but exceed it together are refused at planning, not by the
// recovery scheduler after injection.
func TestFaultListGuardedAsAWhole(t *testing.T) {
	p := fastProfile()
	p.Cluster.OSDsPerHost = 4
	p.Pool.K = 4
	p.Pool.M = 2
	p.Pool.FailureDomain = "osd"
	s, err := Populate(p)
	if err != nil {
		t.Fatal(err)
	}
	co, err := s.coordinator(p)
	if err != nil {
		t.Fatal(err)
	}
	pool, _ := co.cluster.Pool(p.Pool.Name)
	var acting []int
	for _, pg := range pool.PGs {
		if len(pg.Objects) > 0 {
			acting = pg.Acting
			break
		}
	}
	specs := []FaultSpec{
		{Level: FaultLevelDevice, OSDs: acting[0:2], AtSeconds: 1},
		{Level: FaultLevelDevice, OSDs: acting[2:4], AtSeconds: 1},
	}
	inj := NewFaultInjector(co.cluster, p.Pool.Name)
	for i, spec := range specs {
		if _, err := inj.plan(spec, map[int]bool{}); err != nil {
			t.Fatalf("spec %d alone: %v", i, err)
		}
	}
	if _, err := inj.PlanAll(specs); !errors.Is(err, ErrExceedsTolerance) {
		t.Fatalf("PlanAll over both: %v, want ErrExceedsTolerance", err)
	}
	p.Faults = specs
	if _, err := s.Run(p); !errors.Is(err, ErrExceedsTolerance) {
		t.Fatalf("Run: %v, want ErrExceedsTolerance", err)
	}
}

// TestNoDegradedPGCompletesAtDetection: a fault on an OSD that holds no
// chunk degrades no PG, so recovery completes the instant the failure is
// detected, and the timeline's completion line carries that instant, not
// the moment recovery was scheduled.
func TestNoDegradedPGCompletesAtDetection(t *testing.T) {
	p := fastProfile()
	p.Pool.PGNum = 1
	p.Workload.Objects = 50
	s, err := Populate(p)
	if err != nil {
		t.Fatal(err)
	}
	co, err := s.coordinator(p)
	if err != nil {
		t.Fatal(err)
	}
	pool, _ := co.cluster.Pool(p.Pool.Name)
	idle := 0
	for slices.Contains(pool.PGs[0].Acting, idle) {
		idle++
	}
	p.Faults = []FaultSpec{{Level: FaultLevelDevice, OSDs: []int{idle}, AtSeconds: 5}}
	res, err := s.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Recovery
	if r == nil || r.DegradedPGs != 0 || r.FinishedAt != r.DetectedAt {
		t.Fatalf("recovery %+v, want no degraded PG, finished at detection", r)
	}
	found := false
	for _, e := range res.Timeline {
		if strings.Contains(e.Message, "recovery completed") {
			found = true
			if e.Time != r.DetectedAt {
				t.Errorf("%q logged at t=%v, detection was at %v", e.Message, e.Time, r.DetectedAt)
			}
		}
	}
	if !found {
		t.Fatalf("no completion line in the timeline (%d entries)", len(res.Timeline))
	}
}

// TestRunScheduleDeviceRound: a device-level schedule round is the round
// a one-shot run performs, so its target's device is removed, and each
// round reports its own slice of the timeline and of iostat.
func TestRunScheduleDeviceRound(t *testing.T) {
	p := fastProfile()
	p.Faults = nil
	s, err := Populate(p)
	if err != nil {
		t.Fatal(err)
	}
	co, err := s.coordinator(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.runSchedule(Schedule{
		GapSeconds: 30,
		Rounds: []FaultSpec{
			{Level: FaultLevelDevice, Count: 1, AtSeconds: 5},
			{Level: FaultLevelNode, Count: 1, AtSeconds: 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	target := res.Rounds[0].Plan.OSDs[0]
	if !co.cluster.OSDs()[target].Store.Device().Removed() {
		t.Fatalf("osd.%d's device not removed by its device round", target)
	}
	// Each round reports its own slice of the timeline and of iostat.
	for i, r := range res.Rounds {
		if r.Recovery == nil || len(r.IOSamples) == 0 {
			t.Fatalf("round %d: recovery %v, %d iostat samples", i, r.Recovery, len(r.IOSamples))
		}
		started := false
		for _, e := range r.Timeline {
			if e.Time < r.Recovery.InjectedAt && i > 0 {
				t.Fatalf("round %d's timeline holds an entry from t=%v, before its injection at %v", i, e.Time, r.Recovery.InjectedAt)
			}
			started = started || strings.Contains(e.Message, "start recovery I/O")
		}
		if !started {
			t.Fatalf("round %d's timeline never starts recovery I/O (%d entries)", i, len(r.Timeline))
		}
		if first := r.IOSamples[0].Time; first != r.Recovery.DetectedAt {
			t.Fatalf("round %d's first iostat sample is from t=%v, detection was at %v", i, first, r.Recovery.DetectedAt)
		}
	}
}

// FuzzFaultSpecs drives the fault-list input surface: any list Validate
// accepts runs to a result or an error on a fixed 200-object cluster —
// no panic, no hang, no matter which level, count, locality, explicit
// ids or injection times the two specs carry.
func FuzzFaultSpecs(f *testing.F) {
	p := fastProfile()
	p.Workload.Objects = 200
	p.Faults = nil
	s, err := Populate(p)
	if err != nil {
		f.Fatal(err)
	}
	levels := []string{FaultLevelNode, FaultLevelDevice, FaultLevelCorruption, "bitflip"}
	localities := []string{"", LocalitySameHost, LocalityDiffHosts, "rack"}

	f.Add(uint8(0), 1, uint8(0), 10.0, []byte{}, uint8(3), 0, uint8(0), 0.0)
	f.Add(uint8(1), 2, uint8(2), 5.0, []byte{}, uint8(2), 3, uint8(0), 1.0)
	f.Add(uint8(0), 0, uint8(0), 0.0, []byte{255}, uint8(3), 0, uint8(0), 0.0)       // osd.999
	f.Add(uint8(1), 0, uint8(0), 0.0, []byte{4, 4}, uint8(3), 0, uint8(0), 0.0)      // one id twice
	f.Add(uint8(1), 3, uint8(1), 1.0, []byte{}, uint8(1), 3, uint8(2), 1.0)          // overlapping plans
	f.Add(uint8(1), 0, uint8(0), 1.0, []byte{1, 2}, uint8(1), 0, uint8(0), 1.0)      // same ids in both
	f.Add(uint8(2), 1<<40, uint8(0), 1e300, []byte{0}, uint8(0), -7, uint8(3), -1.0) // extremes
	f.Add(uint8(0), 1, uint8(0), 1e300, []byte{}, uint8(3), 0, uint8(0), 0.0)        // past the clock's range
	f.Add(uint8(1), 1, uint8(0), math.NaN(), []byte{}, uint8(0), 1, uint8(0), math.Inf(1))
	f.Add(uint8(2), 1, uint8(0), 1.0, []byte{2}, uint8(3), 0, uint8(0), 0.0) // corruption with osds
	f.Fuzz(func(t *testing.T, levelA uint8, countA int, locA uint8, atA float64, ids []byte,
		levelB uint8, countB int, locB uint8, atB float64) {
		specA := FaultSpec{Level: levels[levelA%4], Count: countA, Locality: localities[locA%4], AtSeconds: atA}
		for _, b := range ids {
			// 0 -> -1 and 255 -> 999 put both ends outside a 30-OSD cluster.
			id := int(b) - 1
			if b == 255 {
				id = 999
			}
			specA.OSDs = append(specA.OSDs, id)
		}
		specB := FaultSpec{Level: levels[levelB%4], Count: countB, Locality: localities[locB%4], AtSeconds: atB}
		if len(ids) > 0 && levelB&4 != 0 {
			specB.OSDs = specA.OSDs[:1+len(ids)/2]
		}
		q := p
		q.Faults = []FaultSpec{specA, specB}
		if q.Validate() != nil {
			q.Faults = q.Faults[:1]
			if q.Validate() != nil {
				return
			}
		}
		res, err := s.Run(q)
		if (res == nil) == (err == nil) {
			t.Fatalf("Run returned (%v, %v)", res, err)
		}
	})
}
