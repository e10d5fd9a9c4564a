package experiments

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// The design decisions DESIGN.md names ("Key design decisions") as
// orderings: each test runs the baseline profile at testScale with one
// setting changed and asserts which way the recovery time moves.

// ablate runs one baseline profile per edit and returns the recoveries in
// edit order.
func ablate(t *testing.T, edits ...func(*core.Profile)) []*cluster.RecoveryResult {
	t.Helper()
	ps := make([]core.Profile, len(edits))
	for i, edit := range edits {
		ps[i] = baseProfile(testScale)
		ps[i].Name = fmt.Sprintf("%s-%d", t.Name(), i)
		edit(&ps[i])
	}
	_, results, err := runRecoveries(ps)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*cluster.RecoveryResult, len(results))
	for i, res := range results {
		out[i] = res.Recovery
	}
	return out
}

func pgNum(n int) func(*core.Profile) { return func(p *core.Profile) { p.Pool.PGNum = n } }

// TestCheckingPeriodDampsPGSpeedup: the mark-out window is a fixed cost
// of every recovery cycle, so a configuration change that speeds up the
// EC phase looks smaller with it than without it. Removing the window
// takes a mark-out of 1 ms, since 0 selects the default.
func TestCheckingPeriodDampsPGSpeedup(t *testing.T) {
	noWindow := func(edit func(*core.Profile)) func(*core.Profile) {
		return func(p *core.Profile) {
			edit(p)
			p.Tuning.MarkOutIntervalSeconds = 0.001
		}
	}
	r := ablate(t, pgNum(16), pgNum(256), noWindow(pgNum(16)), noWindow(pgNum(256)))
	with := float64(r[0].SystemRecoveryTime()) / float64(r[1].SystemRecoveryTime())
	without := float64(r[2].SystemRecoveryTime()) / float64(r[3].SystemRecoveryTime())
	t.Logf("pg_num 16->256 speedup: %.3f with the checking period, %.3f without", with, without)
	if !(1 < with && with < without) {
		t.Errorf("pg_num 16->256 speedup %.3f with the checking period, %.3f without: want 1 < with < without", with, without)
	}
}

// TestTuningShortensECPhase: against Ceph's defaults, 8 backfill
// reservations let an OSD recover more PGs at once, and a recovery share
// of 1.0 lifts the mclock throttle; either finishes the EC phase sooner.
func TestTuningShortensECPhase(t *testing.T) {
	r := ablate(t,
		func(p *core.Profile) {},
		func(p *core.Profile) { p.Tuning.MaxBackfills = 8 },
		func(p *core.Profile) { p.Tuning.RecoveryBWFraction = 1.0 })
	base := r[0].ECRecoveryPeriod()
	for i, setting := range []string{"max_backfills 8", "recovery share 1.0"} {
		got := r[i+1].ECRecoveryPeriod()
		t.Logf("EC phase: %v with %s, %v at the defaults", got, setting, base)
		if !(got < base) {
			t.Errorf("EC phase %v with %s, %v at the defaults: want shorter", got, setting, base)
		}
	}
}
