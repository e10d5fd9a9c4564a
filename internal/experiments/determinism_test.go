package experiments

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
)

// The event-engine rewrite (value-typed 4-ary heap, pooled fixed-arg
// events, per-PG IO planning) must not change simulated physics: every
// schedule call happens in the same order at the same instant, so every
// RecoveryResult is bit-identical to the pre-rewrite engine. The goldens
// below were captured from the container/heap + closure engine at the
// current cost-model calibration; regenerate with
//
//	ECFAULT_CAPTURE_GOLDEN=1 go test ./internal/experiments -run EngineDeterminism -v
//
// only when the simulation physics (cost model, recovery protocol)
// changes intentionally — never to paper over an engine regression. Such
// a change moves the full-scale record too; the same switch rewrites it
// (cmd/ecbench TestScale1Golden states the policy):
//
//	ECFAULT_CAPTURE_GOLDEN=1 go test ./cmd/ecbench -run Scale1Golden -v

type timelineGolden struct {
	DetectedNS  int64
	StartNS     int64
	FinishedNS  int64
	HelperDisk  int64
	Network     int64
	Written     int64
	ObjRepairs  int
	RepChunks   int
	DegradedPGs int
}

// goldenScale is the workload divisor engineGoldens was recorded at: 200
// objects, every code path, sub-second cells.
const goldenScale = 50

// goldenCase is one golden shape: its engineGoldens key and profile.
type goldenCase struct {
	Name string
	P    core.Profile
}

// goldenProfilesAt builds the golden shapes at a workload scale divisor:
// goldenScale for the stored goldens, and any other scale for
// TestEngineDeterminismForked's cold-versus-fork comparison.
func goldenProfilesAt(scale int) []goldenCase {
	rs, clay := Codes[0], Codes[1]
	base := func(plugin string, d int) core.Profile {
		return withCode(baseProfile(scale), plugin, d)
	}
	osdShape := func(p core.Profile) core.Profile {
		p.Cluster.OSDsPerHost = 3
		p.Pool.FailureDomain = "osd"
		p.Pool.PGNum = 256
		return p
	}
	var out []goldenCase
	add := func(name string, p core.Profile) {
		p.Name = "golden-" + name
		out = append(out, goldenCase{name, p})
	}

	add("rs-host", base(rs.Plugin, rs.D))
	add("clay-host", base(clay.Plugin, clay.D))

	p := base(rs.Plugin, rs.D)
	p.Pool.PGNum = 16
	add("rs-pg16", p)

	p = base(clay.Plugin, clay.D)
	p.Pool.StripeUnit = 4096 // strided sub-chunk reads
	add("clay-su4k", p)

	p = osdShape(base(rs.Plugin, rs.D))
	p.Faults = []core.FaultSpec{{Level: core.FaultLevelDevice, Count: 2, Locality: core.LocalityDiffHosts, AtSeconds: 10}}
	add("rs-osd-2dev", p)

	p = osdShape(base(clay.Plugin, clay.D))
	p.Faults = []core.FaultSpec{{Level: core.FaultLevelDevice, Count: 3, Locality: core.LocalitySameHost, AtSeconds: 10}}
	add("clay-osd-3dev", p)
	return out
}

// engineGoldens: captured 2026-08-06 on the pre-rewrite engine.
var engineGoldens = map[string]timelineGolden{
	"rs-host":       {DetectedNS: 33000000000, StartNS: 45000000000, FinishedNS: 57707954609, HelperDisk: 7247757312, Network: 7247757312, Written: 805306368, ObjRepairs: 96, RepChunks: 96, DegradedPGs: 74},
	"clay-host":     {DetectedNS: 33000000000, StartNS: 45000000000, FinishedNS: 54206724166, HelperDisk: 2952789312, Network: 2952789312, Written: 805306368, ObjRepairs: 96, RepChunks: 96, DegradedPGs: 74},
	"rs-pg16":       {DetectedNS: 33000000000, StartNS: 45000000000, FinishedNS: 60221911325, HelperDisk: 9286189056, Network: 9286189056, Written: 1031798784, ObjRepairs: 123, RepChunks: 123, DegradedPGs: 10},
	"clay-su4k":     {DetectedNS: 33000000000, StartNS: 45000000000, FinishedNS: 132143830172, HelperDisk: 7876509696, Network: 2624862240, Written: 716046336, ObjRepairs: 96, RepChunks: 96, DegradedPGs: 74},
	"rs-osd-2dev":   {DetectedNS: 33000000000, StartNS: 57000000000, FinishedNS: 62949926672, HelperDisk: 5284823040, Network: 5284823040, Written: 629145600, ObjRepairs: 70, RepChunks: 75, DegradedPGs: 50},
	"clay-osd-3dev": {DetectedNS: 33000000000, StartNS: 45000000000, FinishedNS: 52756779095, HelperDisk: 3760892066, Network: 3760892066, Written: 931135488, ObjRepairs: 90, RepChunks: 111, DegradedPGs: 73},
}

func TestEngineDeterminism(t *testing.T) {
	capture := os.Getenv("ECFAULT_CAPTURE_GOLDEN") != ""
	for _, cfg := range goldenProfilesAt(goldenScale) {
		res := coldRun(t, cfg.P)
		if res.Recovery == nil {
			t.Fatalf("%s: no recovery result", cfg.Name)
		}
		got := recoveryGolden(res)
		if capture {
			fmt.Printf("\t%q: {DetectedNS: %d, StartNS: %d, FinishedNS: %d, HelperDisk: %d, Network: %d, Written: %d, ObjRepairs: %d, RepChunks: %d, DegradedPGs: %d},\n",
				cfg.Name, got.DetectedNS, got.StartNS, got.FinishedNS, got.HelperDisk, got.Network, got.Written, got.ObjRepairs, got.RepChunks, got.DegradedPGs)
			continue
		}
		want, ok := engineGoldens[cfg.Name]
		if !ok {
			t.Fatalf("%s: no golden recorded", cfg.Name)
		}
		if got != want {
			t.Errorf("%s: timeline diverged from pre-rewrite engine\n got %+v\nwant %+v", cfg.Name, got, want)
		}
	}
}
