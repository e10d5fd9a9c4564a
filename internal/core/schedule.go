package core

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/iostat"
	"repro/internal/logsys"
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
	// Timeline and IOSamples are the log entries shipped and the iostat
	// samples taken during this round (round 0 includes the populate
	// phase's log lines).
	Timeline  []logsys.Entry
	IOSamples []iostat.Sample
}

// ScheduleResult aggregates a campaign.
type ScheduleResult struct {
	Rounds []RoundResult
	// Health is the cluster health string after the last round.
	Health string
	// TotalRepairedChunks sums chunk repairs across rounds.
	TotalRepairedChunks int
}

// RunSchedule executes a multi-round fault campaign on a fork of a
// cluster populated for the profile (whose own Faults list is ignored in
// favor of the schedule). Every round is the fault round a one-shot Run
// performs, on the state the previous rounds left behind.
func RunSchedule(p Profile, sched Schedule) (*ScheduleResult, error) {
	if len(sched.Rounds) == 0 {
		return nil, fmt.Errorf("core: schedule has no rounds")
	}
	// The rounds are checked the way a profile's own fault list is.
	p.Faults = sched.Rounds
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.Faults = nil
	s, err := Populate(p)
	if err != nil {
		return nil, err
	}
	co, err := s.coordinator(p)
	if err != nil {
		return nil, err
	}
	return co.runSchedule(sched)
}

// runSchedule runs the schedule's rounds, one after the other, on the
// coordinator's cluster.
func (co *Coordinator) runSchedule(sched Schedule) (*ScheduleResult, error) {
	cl := co.cluster
	out := &ScheduleResult{}
	gap := time.Duration(sched.GapSeconds * float64(time.Second))
	sampled := 0
	for round, spec := range sched.Rounds {
		// Inject relative to the current simulated time.
		at := cl.Sim().Now() + gap + time.Duration(spec.AtSeconds*float64(time.Second))
		spec.AtSeconds = at.Seconds()
		res := &Result{}
		plans, err := co.round([]FaultSpec{spec}, res)
		if err != nil {
			return nil, fmt.Errorf("core: round %d: %w", round, err)
		}
		co.collect(res)
		out.TotalRepairedChunks += res.RepairedInconsistent
		if res.Recovery != nil {
			out.TotalRepairedChunks += res.Recovery.RepairedChunks
		}
		out.Rounds = append(out.Rounds, RoundResult{
			Round: round, Fault: spec, Plan: plans[0], Recovery: res.Recovery,
			Timeline: res.Timeline, IOSamples: res.IOSamples[sampled:],
		})
		sampled = len(res.IOSamples)
		cl.ResetFailureState()
	}
	out.Health = cl.Health().String()
	return out, nil
}
