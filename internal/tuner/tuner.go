// Package tuner implements the paper's proposed follow-up (§6): using the
// quantitative configuration-sensitivity measurements to tune EC-based
// DSS automatically. Given a base profile and a search space of
// configuration knobs (plugin, pg_num, stripe_unit, cache scheme), it
// evaluates candidates through the ECFault coordinator and ranks them by
// an objective over recovery time and write amplification.
//
// Two strategies are provided: exhaustive grid search, and greedy
// coordinate descent for larger spaces (tune one knob at a time, keeping
// the best value before moving to the next).
package tuner

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/durability"
	"repro/internal/erasure/codecache"
)

// Objective scores a candidate; lower is better.
type Objective int

const (
	// MinRecoveryTime optimizes the system recovery time alone.
	MinRecoveryTime Objective = iota
	// MinWriteAmplification optimizes storage overhead alone.
	MinWriteAmplification
	// Balanced optimizes the product of normalized recovery time and WA.
	Balanced
	// MaxDurability optimizes MTTDL, with the candidate's measured
	// recovery time feeding the repair rate — fast recovery is durability.
	MaxDurability
)

func (o Objective) String() string {
	switch o {
	case MinRecoveryTime:
		return "min-recovery-time"
	case MinWriteAmplification:
		return "min-write-amplification"
	case MaxDurability:
		return "max-durability"
	default:
		return "balanced"
	}
}

// PluginChoice is one erasure-code candidate.
type PluginChoice struct {
	Plugin string
	K, M   int
	D      int
}

func (p PluginChoice) String() string {
	if p.D > 0 {
		return fmt.Sprintf("%s(k=%d,m=%d,d=%d)", p.Plugin, p.K, p.M, p.D)
	}
	return fmt.Sprintf("%s(k=%d,m=%d)", p.Plugin, p.K, p.M)
}

// Space enumerates the knobs to explore. Empty slices keep the base
// profile's value for that knob.
type Space struct {
	Plugins      []PluginChoice
	PGNums       []int
	StripeUnits  []int64
	CacheSchemes []string
}

// Candidates returns the cartesian product of the space applied to base.
func (s Space) Candidates(base core.Profile) []core.Profile {
	plugins := s.Plugins
	if len(plugins) == 0 {
		plugins = []PluginChoice{{Plugin: base.Pool.Plugin, K: base.Pool.K, M: base.Pool.M, D: base.Pool.D}}
	}
	pgs := s.PGNums
	if len(pgs) == 0 {
		pgs = []int{base.Pool.PGNum}
	}
	units := s.StripeUnits
	if len(units) == 0 {
		units = []int64{base.Pool.StripeUnit}
	}
	caches := s.CacheSchemes
	if len(caches) == 0 {
		caches = []string{base.Backend.CacheScheme}
	}
	var out []core.Profile
	for _, pl := range plugins {
		for _, pg := range pgs {
			for _, u := range units {
				for _, cs := range caches {
					p := base
					p.Pool.Plugin = pl.Plugin
					p.Pool.K = pl.K
					p.Pool.M = pl.M
					p.Pool.D = pl.D
					p.Pool.PGNum = pg
					p.Pool.StripeUnit = u
					p.Backend.CacheScheme = cs
					p.Name = fmt.Sprintf("tune-%s-pg%d-su%d-%s", pl, pg, u, cs)
					out = append(out, p)
				}
			}
		}
	}
	return out
}

// Candidate is one evaluated configuration.
type Candidate struct {
	Profile      core.Profile
	RecoveryTime time.Duration
	WA           float64
	// DurabilityNines is the annual durability implied by the code's
	// geometry and the measured recovery time (AFR 2%/year).
	DurabilityNines float64
	Score           float64
	Err             error // non-nil when the profile failed to run
}

// Describe summarizes the candidate's knobs.
func (c Candidate) Describe() string {
	p := c.Profile.Pool
	return fmt.Sprintf("%s k=%d m=%d pg_num=%d stripe_unit=%d cache=%s",
		p.Plugin, p.K, p.M, p.PGNum, p.StripeUnit, c.Profile.Backend.CacheScheme)
}

// ErrEmptySpace is returned when the space yields no runnable candidate.
var ErrEmptySpace = errors.New("tuner: no candidate could be evaluated")

// search holds what the batches of one search share: the sweep every
// profile runs on, and each code's sampled fatality profile, which
// depends on the code alone and not on the repair time.
type search struct {
	sw       *core.Sweep
	fatality map[codecache.Spec][]float64
}

func newSearch() *search {
	return &search{sw: core.NewSweep(), fatality: map[codecache.Spec][]float64{}}
}

// evaluate runs the profiles as one batch on the sweep, which populates
// each layout once and forks it per profile, and returns their candidates
// by input index.
func (s *search) evaluate(ps []core.Profile) []Candidate {
	results, errs := s.sw.Run(ps)
	cands := make([]Candidate, len(ps))
	for i, p := range ps {
		cands[i] = s.candidate(p, results[i], errs[i])
	}
	return cands
}

// candidate turns one profile's run into a candidate's raw metrics.
func (s *search) candidate(p core.Profile, res *core.Result, err error) Candidate {
	cand := Candidate{Profile: p, Err: err}
	if err != nil {
		return cand
	}
	if res.Recovery != nil {
		cand.RecoveryTime = res.Recovery.SystemRecoveryTime()
	}
	cand.WA = res.WA.Measured

	// Durability: the measured recovery time is the repair MTTR.
	spec := codecache.Spec{Plugin: p.Pool.Plugin, K: p.Pool.K, M: p.Pool.M, D: p.Pool.D}
	code, err := codecache.Get(spec.Plugin, spec.K, spec.M, spec.D)
	if cand.RecoveryTime <= 0 || err != nil {
		return cand
	}
	params := durability.Params{DeviceAFR: 0.02, MTTRHours: cand.RecoveryTime.Hours(), Samples: 800, Seed: 1}
	prof, ok := s.fatality[spec]
	if !ok {
		prof = durability.FatalityProfile(code, params.Samples, params.Seed)
		s.fatality[spec] = prof
	}
	if mttdl, err := durability.MTTDLHoursWith(code, prof, params); err == nil {
		cand.DurabilityNines = durability.Nines(mttdl)
	}
	return cand
}

// score computes the objective over metrics normalized by the bests seen.
func score(obj Objective, c Candidate, bestTime time.Duration, bestWA float64) float64 {
	tNorm := 1.0
	if bestTime > 0 && c.RecoveryTime > 0 {
		tNorm = float64(c.RecoveryTime) / float64(bestTime)
	}
	waNorm := 1.0
	if bestWA > 0 && c.WA > 0 {
		waNorm = c.WA / bestWA
	}
	switch obj {
	case MinRecoveryTime:
		return tNorm
	case MinWriteAmplification:
		return waNorm
	case MaxDurability:
		// Lower is better: invert the nines (clamped away from zero).
		if c.DurabilityNines <= 0 {
			return math.Inf(1)
		}
		return 100 / c.DurabilityNines
	default:
		return tNorm * waNorm
	}
}

// rank scores and sorts evaluated candidates, best first.
func rank(obj Objective, cands []Candidate) []Candidate {
	bestTime := time.Duration(math.MaxInt64)
	bestWA := math.MaxFloat64
	ok := 0
	for _, c := range cands {
		if c.Err != nil {
			continue
		}
		ok++
		if c.RecoveryTime > 0 && c.RecoveryTime < bestTime {
			bestTime = c.RecoveryTime
		}
		if c.WA > 0 && c.WA < bestWA {
			bestWA = c.WA
		}
	}
	if ok == 0 {
		return nil
	}
	for i := range cands {
		if cands[i].Err != nil {
			cands[i].Score = math.Inf(1)
			continue
		}
		cands[i].Score = score(obj, cands[i], bestTime, bestWA)
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Score < cands[j].Score })
	return cands
}

// GridSearch evaluates every candidate in the space as one batch on a
// core.Sweep (each code's durability sampled once) and returns them
// ranked best-first.
func GridSearch(base core.Profile, space Space, obj Objective) ([]Candidate, error) {
	ranked := rank(obj, newSearch().evaluate(space.Candidates(base)))
	if ranked == nil {
		return nil, ErrEmptySpace
	}
	return ranked, nil
}

// GreedySearch tunes one knob at a time in a fixed order (plugin, pg_num,
// stripe_unit, cache scheme), keeping the best value of each before
// moving on — O(sum of knob sizes) runs instead of the product. All runs
// share one core.Sweep, and each knob's values run as one batch.
func GreedySearch(base core.Profile, space Space, obj Objective) (Candidate, int, error) {
	s := newSearch()
	current := base
	better := func(a, b Candidate) bool {
		if b.Err != nil {
			return true
		}
		if a.Err != nil {
			return false
		}
		return score(obj, a, minDur(a.RecoveryTime, b.RecoveryTime), math.Min(orInf(a.WA), orInf(b.WA))) <=
			score(obj, b, minDur(a.RecoveryTime, b.RecoveryTime), math.Min(orInf(a.WA), orInf(b.WA)))
	}
	same := func(p, q core.Profile) bool { return p.Pool == q.Pool && p.Backend == q.Backend }
	best := s.evaluate([]core.Profile{base})[0]
	runs := 1
	tryAll := func(apply func(*core.Profile, int), count int) {
		// A value sets this knob alone, so the profile it yields does not
		// depend on which earlier value the chain below kept: run every
		// value that differs from the knob's starting profile as one batch,
		// then compare them in order. A value equal to the starting
		// profile is the best the knob started from.
		start, startBest := current, best
		ps := make([]core.Profile, count)
		var batch []core.Profile
		for v := range ps {
			ps[v] = start
			apply(&ps[v], v)
			if !same(ps[v], start) {
				batch = append(batch, ps[v])
			}
		}
		ran := s.evaluate(batch)
		runs += len(batch)
		for _, p := range ps {
			cand := startBest
			if !same(p, start) {
				cand, ran = ran[0], ran[1:]
			}
			if !same(p, current) && better(cand, best) {
				best, current = cand, p
			}
		}
	}
	if len(space.Plugins) > 0 {
		tryAll(func(p *core.Profile, v int) {
			pl := space.Plugins[v]
			p.Pool.Plugin, p.Pool.K, p.Pool.M, p.Pool.D = pl.Plugin, pl.K, pl.M, pl.D
		}, len(space.Plugins))
	}
	if len(space.PGNums) > 0 {
		tryAll(func(p *core.Profile, v int) { p.Pool.PGNum = space.PGNums[v] }, len(space.PGNums))
	}
	if len(space.StripeUnits) > 0 {
		tryAll(func(p *core.Profile, v int) { p.Pool.StripeUnit = space.StripeUnits[v] }, len(space.StripeUnits))
	}
	if len(space.CacheSchemes) > 0 {
		tryAll(func(p *core.Profile, v int) { p.Backend.CacheScheme = space.CacheSchemes[v] }, len(space.CacheSchemes))
	}
	if best.Err != nil {
		return best, runs, ErrEmptySpace
	}
	best.Score = 1 // normalized against itself; grid ranks are relative
	return best, runs, nil
}

func minDur(a, b time.Duration) time.Duration {
	if a > 0 && (b <= 0 || a < b) {
		return a
	}
	return b
}

func orInf(v float64) float64 {
	if v <= 0 {
		return math.Inf(1)
	}
	return v
}
