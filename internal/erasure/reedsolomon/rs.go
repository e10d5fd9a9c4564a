// Package reedsolomon implements classic systematic Reed-Solomon erasure
// coding over GF(2^8), in both the Vandermonde-derived form used by
// Jerasure's reed_sol_van technique and the Cauchy form used by
// cauchy_orig. Any k of the n shards reconstruct the original data; repair
// of any set of <= m lost shards reads k whole surviving chunks.
package reedsolomon

import (
	"fmt"

	"repro/internal/erasure"
	"repro/internal/erasure/kernel"
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

// decProgram is a compiled reconstruction for one survivor set: the rows
// of the inverted sub-generator belonging to the missing data shards,
// ready to run over the k survivor shards.
type decProgram struct {
	rows    []int // survivor shard indices feeding the program, len k
	missing []int // data shard indices the program reconstructs
	prog    *kernel.Program
}

// RS is a Reed-Solomon code instance. The construction (generator matrix,
// encode program) is immutable after New; decode programs and repair
// plans are derived artifacts held in concurrency-safe singleflight
// caches, so one instance is safe to share across goroutines and
// snapshot forks.
type RS struct {
	k, m      int
	technique Technique
	gen       *gfmat.Matrix   // n x k systematic generator
	enc       *kernel.Program // parity rows of gen, compiled once

	decodeLRU *kernel.LRU[*decProgram] // survivor mask -> compiled decode
	plans     *erasure.PlanCache       // failed mask -> repair plan
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
	parity := make([][]byte, m)
	for i := range parity {
		parity[i] = gen.Row(k + i)
	}
	return &RS{
		k: k, m: m, technique: technique, gen: gen,
		enc:       kernel.Compile(parity),
		decodeLRU: kernel.NewLRU[*decProgram](kernel.DecodeCacheSize),
		plans:     erasure.NewPlanCache(k + m),
	}, nil
}

func init() {
	// Plugin names follow Table 1 of the paper: the jerasure and isa
	// plugins expose RS techniques.
	erasure.Register("jerasure_reed_sol_van", func(k, m, d int) (erasure.Code, error) {
		return New(k, m, Vandermonde)
	})
	erasure.Register("jerasure_cauchy_orig", func(k, m, d int) (erasure.Code, error) {
		return New(k, m, Cauchy)
	})
	erasure.Register("isa_reed_sol_van", func(k, m, d int) (erasure.Code, error) {
		return New(k, m, Vandermonde)
	})
}

// Name implements erasure.Code.
func (r *RS) Name() string { return r.technique.String() }

// K implements erasure.Code.
func (r *RS) K() int { return r.k }

// M implements erasure.Code.
func (r *RS) M() int { return r.m }

// N implements erasure.Code.
func (r *RS) N() int { return r.k + r.m }

// SubChunks implements erasure.Code. Reed-Solomon has no
// sub-packetization.
func (r *RS) SubChunks() int { return 1 }

// Generator exposes the n x k generator matrix (for tests and tooling).
func (r *RS) Generator() *gfmat.Matrix { return r.gen.Clone() }

// Encode implements erasure.Code.
func (r *RS) Encode(shards [][]byte) error {
	n := r.N()
	if len(shards) != n {
		return fmt.Errorf("%w: got %d, want %d", erasure.ErrShardCount, len(shards), n)
	}
	size := -1
	for i := 0; i < r.k; i++ {
		if shards[i] == nil {
			return fmt.Errorf("%w: data shard %d is nil", erasure.ErrShardSize, i)
		}
		if size == -1 {
			size = len(shards[i])
		} else if len(shards[i]) != size {
			return fmt.Errorf("%w: shard %d has %d bytes, want %d", erasure.ErrShardSize, i, len(shards[i]), size)
		}
	}
	for i := r.k; i < n; i++ {
		if shards[i] == nil || len(shards[i]) != size {
			shards[i] = make([]byte, size)
		}
	}
	r.enc.Run(shards[:r.k], shards[r.k:], true)
	return nil
}

// Decode implements erasure.Code.
func (r *RS) Decode(shards [][]byte) error {
	size, err := erasure.CheckShards(shards, r.N(), 1)
	if err != nil {
		return err
	}
	var missing, present []int
	for i, s := range shards {
		if s == nil {
			missing = append(missing, i)
		} else {
			present = append(present, i)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if len(missing) > r.m {
		return fmt.Errorf("%w: %d lost, max %d", erasure.ErrTooManyErasures, len(missing), r.m)
	}
	// Recover the data vector from the first k surviving shards, then
	// re-encode whatever is missing.
	dp, err := r.decodeProgram(present[:r.k])
	if err != nil {
		return err
	}
	srcs := make([][]byte, r.k)
	for j, src := range dp.rows {
		srcs[j] = shards[src]
	}
	dsts := make([][]byte, len(dp.missing))
	for i := range dsts {
		dsts[i] = make([]byte, size)
	}
	dp.prog.Run(srcs, dsts, true)
	for i, idx := range dp.missing {
		shards[idx] = dsts[i]
	}
	for _, idx := range missing {
		if idx < r.k {
			continue // already rebuilt above
		}
		buf := make([]byte, size)
		r.enc.Plan(idx-r.k).Mul(shards[:r.k], buf)
		shards[idx] = buf
	}
	return nil
}

// decodeProgram returns the compiled reconstruction for the given k
// surviving rows, memoized per survivor set in a bounded LRU keyed by the
// survivor bitmask (an allocation-free lookup, unlike the fmt.Sprint keys
// this replaces).
func (r *RS) decodeProgram(rows []int) (*decProgram, error) {
	return r.decodeLRU.GetOrCompute(kernel.MaskOf(rows...), func() (*decProgram, error) {
		sub := r.gen.SubMatrix(rows)
		inv, err := sub.Invert()
		if err != nil {
			return nil, fmt.Errorf("reedsolomon: decode matrix for rows %v: %w", rows, err)
		}
		dp := &decProgram{rows: append([]int(nil), rows...)}
		have := make([]bool, r.k)
		for _, idx := range rows {
			if idx < r.k {
				have[idx] = true
			}
		}
		var recon [][]byte
		for i := 0; i < r.k; i++ {
			if !have[i] {
				dp.missing = append(dp.missing, i)
				recon = append(recon, inv.Row(i))
			}
		}
		dp.prog = kernel.Compile(recon)
		return dp, nil
	})
}

// RepairPlan implements erasure.Code: RS repair reads k whole surviving
// chunks (data shards preferred, matching Ceph's shard ordering). Plans
// are memoized per failed set and shared; callers must not mutate them.
func (r *RS) RepairPlan(failed []int) (*erasure.Plan, error) {
	return r.plans.Get(failed, func() (*erasure.Plan, error) {
		return r.buildRepairPlan(failed)
	})
}

func (r *RS) buildRepairPlan(failed []int) (*erasure.Plan, error) {
	if len(failed) == 0 {
		return &erasure.Plan{SubChunkTotal: 1}, nil
	}
	if len(failed) > r.m {
		return nil, fmt.Errorf("%w: %d lost, max %d", erasure.ErrTooManyErasures, len(failed), r.m)
	}
	lost := map[int]bool{}
	for _, f := range failed {
		if f < 0 || f >= r.N() {
			return nil, fmt.Errorf("reedsolomon: invalid shard index %d", f)
		}
		lost[f] = true
	}
	plan := &erasure.Plan{Failed: append([]int(nil), failed...), SubChunkTotal: 1}
	for i := 0; i < r.N() && len(plan.Helpers) < r.k; i++ {
		if lost[i] {
			continue
		}
		plan.Helpers = append(plan.Helpers, erasure.NewHelperRead(i, []int{0}))
	}
	if len(plan.Helpers) < r.k {
		return nil, erasure.ErrTooManyErasures
	}
	return plan, nil
}

// Repair implements erasure.Code. For RS it reduces to Decode on the shards
// the plan reads.
func (r *RS) Repair(shards [][]byte, failed []int) error {
	plan, err := r.RepairPlan(failed)
	if err != nil {
		return err
	}
	// Build a working set containing only planned helpers + holes, so the
	// implementation provably uses nothing else.
	work := make([][]byte, r.N())
	for _, h := range plan.Helpers {
		work[h.Shard] = shards[h.Shard]
	}
	if err := r.Decode(work); err != nil {
		return err
	}
	for _, f := range failed {
		shards[f] = work[f]
	}
	return nil
}
