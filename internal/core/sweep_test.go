package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bluestore"
	"repro/internal/parallel"
)

// TestSweepSharesLayouts: two layouts times the three cache schemes
// populate each layout once (2 misses, 4 hits), where one cold Run per
// profile would populate all six. Results come back by input index, each
// equal to its unforked twin.
func TestSweepSharesLayouts(t *testing.T) {
	schemes := []string{SchemeKVOptimized, SchemeDataOptimized, SchemeAutotune}
	var ps []Profile
	for _, pgs := range []int{16, 32} {
		for _, s := range schemes {
			p := fastProfile()
			p.Name = fmt.Sprintf("pg%d-%s", pgs, s)
			p.Pool.PGNum = pgs
			p.Backend.CacheScheme = s
			ps = append(ps, p)
		}
	}
	sw := NewSweep()
	results, errs := sw.Run(ps)
	for i, p := range ps {
		if errs[i] != nil {
			t.Fatalf("%s: %v", p.Name, errs[i])
		}
		if results[i].Profile.Name != p.Name {
			t.Fatalf("result %d is %s's, want %s's", i, results[i].Profile.Name, p.Name)
		}
		compareResults(t, coldRun(t, p), results[i])
	}
	if hits, misses, evictions := sw.Stats(); hits != 4 || misses != 2 || evictions != 0 {
		t.Errorf("stats = %d/%d/%d hits/misses/evictions, want 4/2/0", hits, misses, evictions)
	}
}

// TestSweepBound pins the LRU bound behavior on a sweep shrunk to one
// slot, across Run calls.
func TestSweepBound(t *testing.T) {
	sw := newSweep(1)
	a := fastProfile()
	b := a
	b.Workload.Seed++ // layout-relevant: different snapshot
	tuned := a
	tuned.Tuning.MaxBackfills = 2 // recovery-side: a's snapshot, not a's result

	// a misses; a is served its own result (a hit); b misses and evicts
	// a's snapshot and result; tuned, whose result was never cached,
	// misses and re-populates a's layout, evicting b; a hits that
	// snapshot, its result evicted by tuned's.
	for _, p := range []Profile{a, a, b, tuned, a} {
		if _, errs := sw.Run([]Profile{p}); errs[0] != nil {
			t.Fatal(errs[0])
		}
	}
	if hits, misses, evictions := sw.Stats(); hits != 2 || misses != 3 || evictions != 2 {
		t.Errorf("stats = %d/%d/%d hits/misses/evictions, want 2/3/2", hits, misses, evictions)
	}
	if runs := sw.runs.Load(); runs != 4 {
		t.Errorf("%d simulations, want 4: only the second a is served", runs)
	}
}

// TestSweepReportsErrorsByIndex: an invalid profile fails alone, with the
// error Validate gives, and a failed populate is a miss that is neither
// cached nor evicted.
func TestSweepReportsErrorsByIndex(t *testing.T) {
	bad := fastProfile()
	bad.Pool.PGNum = 0
	sw := NewSweep()
	results, errs := sw.Run([]Profile{fastProfile(), bad})
	if errs[0] != nil || results[0] == nil {
		t.Fatalf("valid profile: %v", errs[0])
	}
	if want := bad.Validate(); errs[1] == nil || errs[1].Error() != want.Error() || results[1] != nil {
		t.Fatalf("invalid profile: (%v, %v), want (nil, %v)", results[1], errs[1], want)
	}
	if hits, misses, evictions := sw.Stats(); hits != 0 || misses != 2 || evictions != 0 {
		t.Errorf("stats = %d/%d/%d hits/misses/evictions, want 0/2/0", hits, misses, evictions)
	}
}

// TestForkMutationsDoNotLeakAcrossParallelCells runs many cells off one
// snapshot concurrently (run under -race): every cache scheme at four
// backfill limits, all forking the same frozen image at once. The cells
// are distinct profiles, so none is served from the result cache. Every
// cell must match its serially computed unforked twin in every
// observable — any cross-fork leak (shared chunk map, shared acting set,
// shared decode state) shows up as a divergent cell or a race report.
func TestForkMutationsDoNotLeakAcrossParallelCells(t *testing.T) {
	schemes := []string{SchemeKVOptimized, SchemeDataOptimized, SchemeAutotune}
	const backfills = 4
	var ps []Profile
	for _, s := range schemes {
		for b := 1; b <= backfills; b++ {
			p := fastProfile()
			p.Name = fmt.Sprintf("%s-backfills-%d", s, b)
			p.Backend.CacheScheme = s
			p.Tuning.MaxBackfills = b
			ps = append(ps, p)
		}
	}
	fresh := make([]*Result, len(ps))
	for i, p := range ps {
		fresh[i] = coldRun(t, p)
	}

	defer parallel.SetWorkers(parallel.SetWorkers(len(ps)))
	sw := NewSweep()
	results, errs := sw.Run(ps)
	for i := range ps {
		if errs[i] != nil {
			t.Fatalf("cell %d: %v", i, errs[i])
		}
		compareResults(t, fresh[i], results[i])
	}
	if hits, misses, _ := sw.Stats(); misses != 1 || hits != int64(len(ps)-1) {
		t.Errorf("stats: %d hits %d misses, want %d hits 1 miss", hits, misses, len(ps)-1)
	}
	if runs := sw.runs.Load(); runs != int64(len(ps)) {
		t.Errorf("%d simulations, want %d forks", runs, len(ps))
	}
}

// TestSweepServesRepeats: profiles equal but for their Name simulate
// once, whether they repeat within a batch or across Run calls, and every
// request gets a result of its own, under its own name, equal to its cold
// twin. Changing one result leaves the others and the cached result alone.
func TestSweepServesRepeats(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(4))
	kv := fastProfile()
	kv.Backend.CacheScheme = SchemeKVOptimized
	tuned := kv
	tuned.Tuning.MaxBackfills = 2
	named := func(p Profile, name string) Profile {
		p.Name = name
		return p
	}
	cold := map[string]*Result{"kv": coldRun(t, kv), "tuned": coldRun(t, tuned)}
	check := func(p Profile, got *Result, twin string) {
		t.Helper()
		want := cold[twin].Profile
		want.Name = p.Name
		if !reflect.DeepEqual(got.Profile, want) {
			t.Errorf("%s: result carries profile %+v", p.Name, got.Profile)
		}
		compareResults(t, cold[twin], got)
	}

	sw := NewSweep()
	batch := []Profile{named(kv, "kv-a"), named(tuned, "tuned-a"), named(kv, "kv-b"), named(tuned, "tuned-b"), named(kv, "kv-c")}
	twins := []string{"kv", "tuned", "kv", "tuned", "kv"}
	results, errs := sw.Run(batch)
	for i, p := range batch {
		if errs[i] != nil {
			t.Fatalf("%s: %v", p.Name, errs[i])
		}
		check(p, results[i], twins[i])
	}
	if results[0].Recovery == results[2].Recovery || results[0].Scrub != nil && results[0].Scrub == results[2].Scrub {
		t.Fatal("repeats share a recovery or scrub report")
	}
	results[0].Recovery.ObjectRepairs++
	results[0].Profile.Tuning.MaxBackfills++
	check(batch[2], results[2], "kv")

	again := named(kv, "kv-d")
	served, errs := sw.Run([]Profile{again})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	check(again, served[0], "kv")
	if runs := sw.runs.Load(); runs != 2 {
		t.Errorf("%d simulations for 2 distinct profiles, want 2", runs)
	}
	if hits, misses, _ := sw.Stats(); hits != 5 || misses != 1 {
		t.Errorf("stats: %d hits %d misses, want 5 hits 1 miss", hits, misses)
	}
}

// TestResultKeyCoversEveryField changes every settable leaf of a profile
// in turn — each field of the cluster, pool, backend, workload and tuning
// specs, each field of a fault and its OSD list, the custom cache ratios —
// and requires a different result key; changing Name alone keeps it. A
// field the encoding skips or cannot give back fails here.
func TestResultKeyCoversEveryField(t *testing.T) {
	base := func() Profile {
		p := DefaultProfile()
		p.Cluster.Racks = 3
		p.Backend.CustomRatios = &bluestore.CacheConfig{KVRatio: 0.5, MetaRatio: 0.3, DataRatio: 0.2}
		p.Faults = []FaultSpec{{Level: FaultLevelDevice, Count: 1, Locality: LocalitySameHost, AtSeconds: 10, OSDs: []int{3}}}
		p.Tuning = TuningSpec{MarkOutIntervalSeconds: 60, MaxBackfills: 1, RecoveryBWFraction: 0.5, RecoveryMaxActive: 3}
		return p
	}
	k0, ok := resultKey(base())
	if !ok {
		t.Fatal("base profile has no key")
	}
	renamed := base()
	renamed.Name = "another-name"
	if k, ok := resultKey(renamed); !ok || k != k0 {
		t.Error("changing Name changes the key")
	}

	var leaves []string
	check := func(name string, mutate func(*Profile)) {
		p := base()
		mutate(&p)
		leaves = append(leaves, name)
		if k, ok := resultKey(p); !ok || k == k0 {
			t.Errorf("%s: the key does not tell the change apart (ok=%v)", name, ok)
		}
	}
	var walk func(name string, at func(*Profile) reflect.Value)
	walk = func(name string, at func(*Profile) reflect.Value) {
		p := base()
		v := at(&p)
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				if name == "Profile" && f.Name == "Name" {
					continue
				}
				if !f.IsExported() {
					t.Errorf("%s.%s is unexported: the key cannot see it", name, f.Name)
					continue
				}
				walk(name+"."+f.Name, func(p *Profile) reflect.Value { return at(p).Field(i) })
			}
		case reflect.Pointer:
			check(name+" = nil", func(p *Profile) { at(p).SetZero() })
			walk(name, func(p *Profile) reflect.Value { return at(p).Elem() })
		case reflect.Slice:
			if v.Len() == 0 {
				t.Fatalf("base profile has an empty %s", name)
			}
			check(name+" = nil", func(p *Profile) { at(p).SetZero() })
			check(name+" appended", func(p *Profile) { s := at(p); s.Set(reflect.Append(s, s.Index(0))) })
			walk(name+"[0]", func(p *Profile) reflect.Value { return at(p).Index(0) })
		case reflect.Int, reflect.Int64:
			check(name, func(p *Profile) { v := at(p); v.SetInt(v.Int() + 1) })
		case reflect.Float64:
			check(name, func(p *Profile) { v := at(p); v.SetFloat(v.Float() + 0.5) })
		case reflect.String:
			check(name, func(p *Profile) { v := at(p); v.SetString(v.String() + "x") })
		case reflect.Bool:
			check(name, func(p *Profile) { v := at(p); v.SetBool(!v.Bool()) })
		default:
			t.Errorf("%s: no mutation for kind %s", name, v.Kind())
		}
	}
	walk("Profile", func(p *Profile) reflect.Value { return reflect.ValueOf(p).Elem() })
	for _, want := range []string{"Profile.Faults[0].OSDs[0]", "Profile.Backend.CustomRatios.Autotune", "Profile.Tuning.RecoveryMaxActive"} {
		if !slices.Contains(leaves, want) {
			t.Errorf("walk never reached %s (reached %v)", want, leaves)
		}
	}

	// Invalid UTF-8 encodes as U+FFFD, so these two pool names share an
	// encoding, yet each is in its run's timeline: neither gets a key, and
	// each is simulated.
	var ps []Profile
	for _, name := range []string{"\xff", "\xfe"} {
		p := fastProfile()
		p.Pool.Name = name
		if _, ok := resultKey(p); ok {
			t.Errorf("pool name %q got a key", name)
		}
		ps = append(ps, p)
	}
	sw := NewSweep()
	results, errs := sw.Run(ps)
	for i, p := range ps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		compareResults(t, coldRun(t, p), results[i])
	}
}
