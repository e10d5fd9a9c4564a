package tuner

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
)

// fastBase is a small profile so searches stay quick.
func fastBase() core.Profile {
	p := core.DefaultProfile().ScaleWorkload(100)
	p.Cluster.Hosts = 15
	p.Pool.PGNum = 32
	return p
}

func TestCandidatesCartesianProduct(t *testing.T) {
	space := Space{
		Plugins: []PluginChoice{
			{Plugin: "jerasure_reed_sol_van", K: 9, M: 3},
			{Plugin: "clay", K: 9, M: 3, D: 11},
		},
		PGNums:      []int{16, 64},
		StripeUnits: []int64{4 << 20},
	}
	cands := space.Candidates(fastBase())
	if len(cands) != 4 {
		t.Fatalf("candidates = %d, want 2*2*1*1", len(cands))
	}
	// Empty space keeps base values: exactly one candidate.
	if got := (Space{}).Candidates(fastBase()); len(got) != 1 {
		t.Fatalf("empty space candidates = %d", len(got))
	}
}

func TestGridSearchRanksByRecoveryTime(t *testing.T) {
	space := Space{PGNums: []int{1, 64}}
	ranked, err := GridSearch(fastBase(), space, MinRecoveryTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 2 {
		t.Fatalf("ranked = %d", len(ranked))
	}
	if ranked[0].Profile.Pool.PGNum != 64 {
		t.Fatalf("winner pg_num = %d, want 64 (more parallel recovery)", ranked[0].Profile.Pool.PGNum)
	}
	if ranked[0].Score > ranked[1].Score {
		t.Fatal("not sorted best-first")
	}
	if ranked[0].RecoveryTime <= 0 || ranked[0].WA <= 1 {
		t.Fatalf("metrics missing: %+v", ranked[0])
	}
}

func TestGridSearchRanksByWA(t *testing.T) {
	// RS(12,9) vs RS(15,12) at the same stripe unit: the latter has
	// lower n/k but much higher padding WA (Table 3), so for 64 MB
	// objects at 4 MB units RS(12,9) must win on WA.
	space := Space{Plugins: []PluginChoice{
		{Plugin: "jerasure_reed_sol_van", K: 9, M: 3},
		{Plugin: "jerasure_reed_sol_van", K: 12, M: 3},
	}}
	ranked, err := GridSearch(fastBase(), space, MinWriteAmplification)
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Profile.Pool.K != 9 {
		t.Fatalf("WA winner k = %d, want 9", ranked[0].Profile.Pool.K)
	}
}

func TestGridSearchSkipsInvalidCandidates(t *testing.T) {
	space := Space{PGNums: []int{0, 32}} // pg_num 0 is invalid
	ranked, err := GridSearch(fastBase(), space, Balanced)
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Err != nil {
		t.Fatal("best candidate must be the valid one")
	}
	last := ranked[len(ranked)-1]
	if last.Err == nil {
		t.Fatal("invalid candidate should rank last with an error")
	}
}

func TestGridSearchAllInvalid(t *testing.T) {
	space := Space{PGNums: []int{0}}
	if _, err := GridSearch(fastBase(), space, Balanced); err == nil {
		t.Fatal("expected ErrEmptySpace")
	}
}

func TestGreedySearchConverges(t *testing.T) {
	space := Space{
		PGNums:       []int{1, 64},
		StripeUnits:  []int64{4 << 20},
		CacheSchemes: []string{core.SchemeKVOptimized, core.SchemeAutotune},
	}
	best, runs, err := GreedySearch(fastBase(), space, MinRecoveryTime)
	if err != nil {
		t.Fatal(err)
	}
	if best.Err != nil {
		t.Fatal(best.Err)
	}
	if best.Profile.Pool.PGNum != 64 {
		t.Fatalf("greedy picked pg_num=%d, want 64", best.Profile.Pool.PGNum)
	}
	// Greedy runs at most 1 + sum(knob sizes) evaluations.
	if runs > 1+2+1+2 {
		t.Fatalf("greedy ran %d evaluations", runs)
	}
	if best.RecoveryTime <= 0 {
		t.Fatal("metrics missing")
	}
}

// TestGreedyRunsEachValueOnce: a knob's values run as one batch against
// the knob's starting profile, so the base's own pg_num, listed after the
// value that beats it, is compared from the first run instead of run
// again.
func TestGreedyRunsEachValueOnce(t *testing.T) {
	base := fastBase() // pg_num 32
	best, runs, err := GreedySearch(base, Space{PGNums: []int{64, 1, 32}}, MinRecoveryTime)
	if err != nil {
		t.Fatal(err)
	}
	if best.Profile.Pool.PGNum != 64 {
		t.Fatalf("greedy picked pg_num=%d, want 64", best.Profile.Pool.PGNum)
	}
	if runs != 3 {
		t.Fatalf("greedy ran %d evaluations, want 3: the base and pg_num 64 and 1", runs)
	}
	grid, err := GridSearch(base, Space{PGNums: []int{64}}, MinRecoveryTime)
	if err != nil {
		t.Fatal(err)
	}
	if best.RecoveryTime != grid[0].RecoveryTime || best.WA != grid[0].WA {
		t.Fatalf("greedy's winner %+v differs from its own grid run %+v", best, grid[0])
	}
}

// TestSearchesMatchAcrossWorkerCounts forces the sweep's worker pool off
// and on and requires identical candidates from both searches: the
// fan-out may change wall-clock time only, never a ranking, a metric or
// greedy's path.
func TestSearchesMatchAcrossWorkerCounts(t *testing.T) {
	space := Space{
		Plugins: []PluginChoice{
			{Plugin: "jerasure_reed_sol_van", K: 9, M: 3},
			{Plugin: "lrc", K: 9, M: 3, D: 3},
		},
		PGNums:       []int{16, 64},
		CacheSchemes: []string{core.SchemeKVOptimized, core.SchemeAutotune},
	}
	search := func(workers int) ([]Candidate, Candidate, int) {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		ranked, err := GridSearch(fastBase(), space, Balanced)
		if err != nil {
			t.Fatal(err)
		}
		best, runs, err := GreedySearch(fastBase(), space, Balanced)
		if err != nil {
			t.Fatal(err)
		}
		return ranked, best, runs
	}
	serialGrid, serialBest, serialRuns := search(1)
	parGrid, parBest, parRuns := search(4)
	if !reflect.DeepEqual(serialGrid, parGrid) {
		t.Errorf("grid differs across worker counts:\nserial   %+v\nparallel %+v", serialGrid, parGrid)
	}
	if !reflect.DeepEqual(serialBest, parBest) || serialRuns != parRuns {
		t.Errorf("greedy differs across worker counts: %d runs %+v vs %d runs %+v",
			serialRuns, serialBest, parRuns, parBest)
	}
}

func TestObjectiveStrings(t *testing.T) {
	for _, o := range []Objective{MinRecoveryTime, MinWriteAmplification, Balanced, MaxDurability} {
		if o.String() == "" {
			t.Fatal("objective string empty")
		}
	}
}

func TestMaxDurabilityObjective(t *testing.T) {
	// m=3 vs m=2 at the same k: more parity must win on durability.
	space := Space{Plugins: []PluginChoice{
		{Plugin: "jerasure_reed_sol_van", K: 9, M: 3},
		{Plugin: "jerasure_reed_sol_van", K: 9, M: 2},
	}}
	ranked, err := GridSearch(fastBase(), space, MaxDurability)
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Profile.Pool.M != 3 {
		t.Fatalf("durability winner m = %d, want 3", ranked[0].Profile.Pool.M)
	}
	if ranked[0].DurabilityNines <= ranked[1].DurabilityNines {
		t.Fatalf("nines not ordered: %f vs %f", ranked[0].DurabilityNines, ranked[1].DurabilityNines)
	}
	if ranked[0].DurabilityNines < 5 {
		t.Fatalf("RS(12,9) should exceed 5 nines, got %f", ranked[0].DurabilityNines)
	}
}

func TestCandidateDescribe(t *testing.T) {
	c := Candidate{Profile: fastBase(), RecoveryTime: time.Second, WA: 1.5}
	if c.Describe() == "" {
		t.Fatal("empty description")
	}
}
