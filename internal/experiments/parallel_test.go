package experiments

import (
	"reflect"
	"testing"

	"repro/internal/parallel"
)

// TestParallelCellsMatchSerial runs the whole campaign — all eight
// experiments in ecbench's order — with the worker pool forced off and on,
// each arm on a fresh sweep, and requires equal values: parallelism must
// only change wall-clock time, never results (every cell owns its whole
// simulated cluster and the simulated clock is per-cluster). At 4 workers
// the snapshot and result caches fill concurrently; Fig. 3's main run and
// its 1.0x point are one profile, simulated once for both.
func TestParallelCellsMatchSerial(t *testing.T) {
	const scale = 200
	campaign := func(workers int) []any {
		defer parallel.SetWorkers(parallel.SetWorkers(workers))
		ResetSnapshotCache()
		var out []any
		add := func(v any, err error) {
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			out = append(out, v)
		}
		add(Fig2aBackendCache(scale))
		add(Fig2bPlacementGroups(scale))
		add(Fig2cStripeUnit(scale))
		add(Fig2dFailureMode(scale))
		add(Fig3Timeline(scale))
		add(Table3WriteAmplification(scale))
		add(WAFormulaValidation(scale))
		add(PluginComparison(scale))
		return out
	}
	serial, par := campaign(1), campaign(4)
	for i := range serial {
		if !reflect.DeepEqual(serial[i], par[i]) {
			t.Errorf("experiment %d: 4 workers returned\n%+v\nwant (1 worker)\n%+v", i, par[i], serial[i])
		}
	}
}

// TestPluginComparisonParallel runs the 4-plugin study with the pool
// forced on; under -race this doubles as the concurrency audit of
// core.Run across all codec paths.
func TestPluginComparisonParallel(t *testing.T) {
	const scale = 200
	prev := parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)
	rows, err := PluginComparison(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.RecoveryTime <= 0 {
			t.Errorf("%s: non-positive recovery time", r.Label)
		}
	}
}
