// Package durability estimates the reliability of an erasure code
// deployment: mean time to data loss (MTTDL) from an absorbing Markov
// chain over concurrent-failure states, and annual durability "nines".
// For MDS codes the chain's absorption happens exactly at m+1 failures;
// for pattern-dependent codes (LRC, SHEC) the per-state fatality
// probabilities come from sampling the code's CanRecover over random
// failure patterns, so locality-induced durability loss is captured.
//
// This complements the paper's storage-overhead analysis: stripe-unit and
// (n,k) choices trade write amplification against durability, and the
// tuner can weigh both.
package durability

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/erasure"
)

// Params describes the deployment.
type Params struct {
	// DeviceAFR is the annualized failure rate of one device (e.g. 0.02
	// for 2%/year).
	DeviceAFR float64
	// MTTRHours is the mean time to repair one failed chunk (detection +
	// recovery), e.g. from a RecoveryResult.
	MTTRHours float64
	// Samples bounds the Monte Carlo sampling per failure count for
	// pattern-dependent codes (default 2000).
	Samples int
	// Seed drives the sampling.
	Seed int64
}

func (p *Params) defaults() error {
	if p.DeviceAFR <= 0 || p.DeviceAFR >= 1 {
		return fmt.Errorf("durability: AFR must be in (0,1), got %f", p.DeviceAFR)
	}
	if p.MTTRHours <= 0 {
		return fmt.Errorf("durability: MTTR must be positive, got %f", p.MTTRHours)
	}
	if p.Samples <= 0 {
		p.Samples = 2000
	}
	return nil
}

const hoursPerYear = 8766

// FatalityProfile returns, for each failure count 0..m+1, the fraction of
// uniformly random failure patterns of that size the code cannot recover.
// MDS codes yield [0, 0, ..., 0, 1]; LRC/SHEC yield intermediate values.
func FatalityProfile(code erasure.Code, samples int, seed int64) []float64 {
	if samples <= 0 {
		samples = 2000
	}
	n := code.N()
	maxLoss := code.M() + 1
	out := make([]float64, maxLoss+1)
	if _, ok := code.(erasure.PatternChecker); !ok {
		out[maxLoss] = 1 // MDS: exact
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	perm := make([]int, n)
	for size := 1; size <= maxLoss; size++ {
		fatal := 0
		for s := 0; s < samples; s++ {
			// rng.Perm(n)'s swap loop, drawn into one buffer: the same
			// random stream and patterns with no slice per sample.
			for i := range perm {
				j := rng.Intn(i + 1)
				perm[i] = perm[j]
				perm[j] = i
			}
			if !erasure.CanRecover(code, perm[:size]) {
				fatal++
			}
		}
		out[size] = float64(fatal) / float64(samples)
	}
	return out
}

// MTTDLHours computes the mean time to data loss of one stripe.
//
// States are the number of concurrently failed chunks i = 0..m; failures
// arrive at rate (n-i)*lambda, repairs complete at rate mu. In the
// practically relevant regime mu >> n*lambda the chain is
// quasi-stationary with occupancy pi_i ~ prod_{j<i}(u_j/mu), and the
// loss rate is the fatality-weighted flux out of each state:
//
//	lossRate = sum_i pi_i * u_i * q_{i+1},   MTTDL = 1/lossRate
//
// where q_{i+1} is the conditional probability that the (i+1)-th
// concurrent failure creates an unrecoverable pattern (exactly 0/1 for
// MDS codes, sampled via CanRecover for LRC/SHEC). The product form is
// numerically stable at the ~1e20-hour magnitudes MDS codes reach, where
// a direct linear-system solve loses to cancellation.
func MTTDLHours(code erasure.Code, p Params) (float64, error) {
	return MTTDLHoursWith(code, FatalityProfile(code, p.Samples, p.Seed), p)
}

// MTTDLHoursWith is MTTDLHours over a fatality profile the caller already
// sampled, FatalityProfile(code, p.Samples, p.Seed). The profile does not
// depend on the repair time, so a caller scoring one code at many repair
// times samples it once.
func MTTDLHoursWith(code erasure.Code, prof []float64, p Params) (float64, error) {
	if err := p.defaults(); err != nil {
		return 0, err
	}
	lambda := p.DeviceAFR / hoursPerYear // per-device hourly failure rate
	mu := 1 / p.MTTRHours

	// Conditional fatality of the transition into state i: fraction of
	// newly-fatal patterns among those survivable at i-1.
	q := make([]float64, len(prof))
	for i := 1; i < len(prof); i++ {
		surviving := 1 - prof[i-1]
		if surviving <= 0 {
			q[i] = 1
			continue
		}
		qi := (prof[i] - prof[i-1]) / surviving
		if qi < 0 {
			qi = 0
		}
		if qi > 1 {
			qi = 1
		}
		q[i] = qi
	}

	n := code.N()
	m := code.M()
	lossRate := 0.0
	occupancy := 1.0 // pi_0
	for i := 0; i <= m; i++ {
		up := float64(n-i) * lambda
		lossRate += occupancy * up * q[i+1]
		occupancy *= up / mu
	}
	if lossRate <= 0 {
		return math.Inf(1), nil
	}
	return 1 / lossRate, nil
}

// AnnualLossProbability converts an MTTDL to the probability of losing
// the stripe within one year (exponential approximation).
func AnnualLossProbability(mttdlHours float64) float64 {
	if mttdlHours <= 0 {
		return 1
	}
	// -Expm1 keeps precision for the astronomically durable codes where
	// 1 - exp(-x) underflows to zero.
	return -math.Expm1(-hoursPerYear / mttdlHours)
}

// Nines expresses annual durability as the conventional "number of
// nines": -log10(annual loss probability).
func Nines(mttdlHours float64) float64 {
	p := AnnualLossProbability(mttdlHours)
	if p <= 0 {
		return math.Inf(1)
	}
	return -math.Log10(p)
}

// Report bundles the durability and cost of one code.
type Report struct {
	Code            string
	N, K            int
	MTTDLHours      float64
	DurabilityNines float64
	StorageOverhead float64
}

// Evaluate produces a Report for a code under the given deployment
// parameters.
func Evaluate(code erasure.Code, p Params) (Report, error) {
	mttdl, err := MTTDLHours(code, p)
	if err != nil {
		return Report{}, err
	}
	return Report{
		Code:            code.Name(),
		N:               code.N(),
		K:               code.K(),
		MTTDLHours:      mttdl,
		DurabilityNines: Nines(mttdl),
		StorageOverhead: float64(code.N()) / float64(code.K()),
	}, nil
}
