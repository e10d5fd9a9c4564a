// Package reedsolomon implements classic systematic Reed-Solomon erasure
// coding over GF(2^8), in both the Vandermonde-derived form used by
// Jerasure's reed_sol_van technique and the Cauchy form used by
// cauchy_orig. Any k of the n shards reconstruct the original data; repair
// of any set of <= m lost shards reads k whole surviving chunks.
package reedsolomon

import (
	"fmt"

	"repro/internal/erasure"
	"repro/internal/erasure/gensolve"
	"repro/internal/gfmat"
)

// Technique selects how the generator matrix is constructed.
type Technique int

const (
	// Vandermonde mirrors Jerasure's reed_sol_van construction.
	Vandermonde Technique = iota
	// Cauchy mirrors Jerasure's cauchy_orig construction.
	Cauchy
)

func (t Technique) String() string {
	if t == Cauchy {
		return "cauchy_orig"
	}
	return "reed_sol_van"
}

// RS is a Reed-Solomon code instance: gensolve.Code over an MDS generator,
// with no local-repair rule. Any pattern of at most M erasures decodes, so
// RS deliberately does not implement erasure.PatternChecker.
type RS struct {
	*gensolve.Code
	technique Technique
}

// New constructs an RS(k+m, k) code.
func New(k, m int, technique Technique) (*RS, error) {
	if k <= 0 || m <= 0 {
		return nil, fmt.Errorf("reedsolomon: k and m must be positive (k=%d m=%d)", k, m)
	}
	if k+m > 256 {
		return nil, fmt.Errorf("reedsolomon: k+m = %d exceeds GF(2^8) limit of 256", k+m)
	}
	var gen *gfmat.Matrix
	if technique == Cauchy {
		gen = gfmat.Cauchy(k+m, k)
	} else {
		gen = gfmat.SystematicVandermonde(k+m, k)
	}
	return &RS{Code: gensolve.NewCode(gen, nil), technique: technique}, nil
}

func init() {
	// Plugin names follow Table 1 of the paper: the jerasure and isa
	// plugins expose RS techniques.
	erasure.Register("jerasure_reed_sol_van", func(k, m, d int) (erasure.Code, error) {
		return New(k, m, Vandermonde)
	}, nil)
	erasure.Register("jerasure_cauchy_orig", func(k, m, d int) (erasure.Code, error) {
		return New(k, m, Cauchy)
	}, nil)
	erasure.Register("isa_reed_sol_van", func(k, m, d int) (erasure.Code, error) {
		return New(k, m, Vandermonde)
	}, nil)
}

// Name implements erasure.Code.
func (r *RS) Name() string { return r.technique.String() }
