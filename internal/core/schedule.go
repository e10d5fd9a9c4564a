package core

import (
	"fmt"
	"time"

	"repro/internal/cluster"
)

// Schedule describes a multi-round fault campaign: the failure modes
// reported in the literature arrive over time, not in one batch (§3.2
// "emulate the failure modes reported in the literature"). Each round
// injects its faults after the previous round's recovery completes plus a
// gap, and is measured independently.
type Schedule struct {
	// Rounds are executed in order; each is one fault batch followed by a
	// full recovery cycle.
	Rounds []FaultSpec `json:"rounds"`
	// GapSeconds is the quiet time between a completed recovery and the
	// next round's injection.
	GapSeconds float64 `json:"gap_seconds"`
}

// RoundResult is the measurement of one schedule round.
type RoundResult struct {
	Round    int
	Fault    FaultSpec
	Plan     PlannedFault
	Recovery *cluster.RecoveryResult
}

// ScheduleResult aggregates a campaign.
type ScheduleResult struct {
	Rounds []RoundResult
	// Health is the cluster health string after the last round.
	Health string
	// TotalRepairedChunks sums chunk repairs across rounds.
	TotalRepairedChunks int
}

// RunSchedule executes a multi-round fault campaign against a fresh
// environment built from the profile (whose own Faults list is ignored in
// favor of the schedule).
func RunSchedule(p Profile, sched Schedule) (*ScheduleResult, error) {
	if len(sched.Rounds) == 0 {
		return nil, fmt.Errorf("core: schedule has no rounds")
	}
	p.Faults = nil
	if err := p.Validate(); err != nil {
		return nil, err
	}
	co, err := NewCoordinator(p)
	if err != nil {
		return nil, err
	}
	defer co.Close()
	if _, _, err := co.populate(); err != nil {
		return nil, err
	}
	cl := co.Cluster()

	out := &ScheduleResult{}
	inj := NewFaultInjector(cl, p.Pool.Name)
	gap := time.Duration(sched.GapSeconds * float64(time.Second))
	for round, spec := range sched.Rounds {
		// Inject relative to the current simulated time.
		at := cl.Sim().Now() + gap + time.Duration(spec.AtSeconds*float64(time.Second))
		spec.AtSeconds = at.Seconds()
		pf, err := inj.Plan(spec)
		if err != nil {
			return nil, fmt.Errorf("core: round %d: %w", round, err)
		}
		if err := inj.Inject(pf); err != nil {
			return nil, fmt.Errorf("core: round %d: %w", round, err)
		}
		if spec.Level == FaultLevelCorruption {
			report, err := cl.ScrubPool(p.Pool.Name)
			if err != nil {
				return nil, err
			}
			repaired, err := cl.RepairInconsistent(p.Pool.Name, report)
			if err != nil {
				return nil, err
			}
			out.TotalRepairedChunks += repaired
			out.Rounds = append(out.Rounds, RoundResult{Round: round, Fault: spec, Plan: pf})
			continue
		}
		rec, err := cl.RecoverPool(p.Pool.Name)
		if err != nil {
			return nil, fmt.Errorf("core: round %d recovery: %w", round, err)
		}
		out.TotalRepairedChunks += rec.RepairedChunks
		out.Rounds = append(out.Rounds, RoundResult{Round: round, Fault: spec, Plan: pf, Recovery: rec})
		cl.ResetFailureState()
	}
	out.Health = cl.Health().String()
	return out, nil
}
