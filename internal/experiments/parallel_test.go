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
	campaign := func(workers int) reflect.Value {
		defer parallel.SetWorkers(parallel.SetWorkers(workers))
		ResetSnapshotCache()
		a, err := Run(scale)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return reflect.ValueOf(*a)
	}
	serial, par := campaign(1), campaign(4)
	for i := range serial.NumField() {
		if s, p := serial.Field(i).Interface(), par.Field(i).Interface(); !reflect.DeepEqual(s, p) {
			t.Errorf("%s: 4 workers returned\n%+v\nwant (1 worker)\n%+v", serial.Type().Field(i).Name, p, s)
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
