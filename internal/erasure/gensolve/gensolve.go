// Package gensolve is the core shared by the systematic generator-matrix
// codes of this repository (Reed-Solomon, LRC, SHEC; sub-packetization
// 1). Everything such a code does follows from its n x k generator:
// encoding runs the parity rows over the data shards, and every erasure
// pattern is answered by one solver that expresses each lost shard as a
// combination of surviving ones. A solver comes from the code's
// local-repair rule when it has a cheaper form for the pattern and from
// inverting k linearly independent surviving rows otherwise; the same
// solver is the pattern's repair plan, its repair, its decode and the
// exact answer to "is this pattern recoverable" for non-MDS codes.
package gensolve

import (
	"fmt"
	"slices"

	"repro/internal/erasure"
	"repro/internal/erasure/kernel"
	"repro/internal/gf256"
	"repro/internal/gfmat"
)

// solver reconstructs one erasure pattern: row i of prog rebuilds shard
// plan.Failed[i] (ascending) from the shards plan.Helpers lists, in that
// order. Solvers are immutable and shared by every caller.
type solver struct {
	plan *erasure.Plan
	prog *kernel.Program
}

// apply reconstructs the lost shards in place from the plan's helpers,
// which must be non-nil and size bytes long. No other shard is read.
func (s *solver) apply(shards [][]byte, size int) {
	srcs := make([][]byte, len(s.plan.Helpers))
	for j, h := range s.plan.Helpers {
		srcs[j] = shards[h.Shard]
	}
	dsts := make([][]byte, len(s.plan.Failed))
	for i := range dsts {
		dsts[i] = make([]byte, size)
	}
	s.prog.Run(srcs, dsts, true)
	for i, lost := range s.plan.Failed {
		shards[lost] = dsts[i]
	}
}

// Code is a systematic generator-matrix code: the erasure.Code methods
// that follow from the generator alone. A concrete code embeds it and
// adds its name and, when not MDS, CanRecover over Decodable. The
// construction is immutable; solvers are memoized per erasure pattern
// in a bounded singleflight LRU (kernel.DecodeCacheSize), so one
// instance is safe to share across goroutines and snapshot forks.
type Code struct {
	k       int
	gen     *gfmat.Matrix   // n x k, identity on the first k rows
	enc     *kernel.Program // parity rows of gen, compiled once
	local   func(lost []int) (helpers []int, rows [][]byte)
	solvers *kernel.LRU[kernel.Mask, *solver] // erased mask -> solver
}

// NewCode wraps a systematic generator (n rows, k columns, n <= 256).
// local is the code's local-repair rule, nil for codes without one:
// given the lost shards in ascending order it returns the surviving
// shards a cheaper-than-decode repair reads and one coefficient row over
// them per lost shard, or nil helpers when the pattern has no local form.
func NewCode(gen *gfmat.Matrix, local func(lost []int) (helpers []int, rows [][]byte)) *Code {
	k := gen.Cols
	parity := make([][]byte, gen.Rows-k)
	for i := range parity {
		parity[i] = gen.Row(k + i)
	}
	return &Code{
		k: k, gen: gen, local: local,
		enc:     kernel.Compile(parity),
		solvers: kernel.NewLRU[kernel.Mask, *solver](kernel.DecodeCacheSize),
	}
}

// K implements erasure.Code.
func (c *Code) K() int { return c.k }

// M implements erasure.Code: the parity count. For a non-MDS code not
// every pattern of M erasures is decodable; see Decodable.
func (c *Code) M() int { return c.gen.Rows - c.k }

// N implements erasure.Code.
func (c *Code) N() int { return c.gen.Rows }

// SubChunks implements erasure.Code: matrix codes have no
// sub-packetization.
func (c *Code) SubChunks() int { return 1 }

// Encode implements erasure.Code.
func (c *Code) Encode(shards [][]byte) error {
	size, err := erasure.CheckDataShards(shards, c.k, c.N(), 1)
	if err != nil {
		return err
	}
	for i := c.k; i < len(shards); i++ {
		if shards[i] == nil || len(shards[i]) != size {
			shards[i] = make([]byte, size)
		}
	}
	c.enc.Run(shards[:c.k], shards[c.k:], true)
	return nil
}

// Decode implements erasure.Code: the solver for the nil-shard pattern
// rebuilds every missing shard, data and parity, in one program run.
func (c *Code) Decode(shards [][]byte) error {
	size, err := erasure.CheckShards(shards, c.N(), 1)
	if err != nil {
		return err
	}
	var erased kernel.Mask
	for i, s := range shards {
		if s == nil {
			erased.Set(i)
		}
	}
	s, err := c.solver(erased)
	if err != nil {
		return err
	}
	s.apply(shards, size)
	return nil
}

// RepairPlan implements erasure.Code: the helpers are the local-repair
// rule's when it covers the pattern and otherwise the first k linearly
// independent survivors (for an MDS code, the first k survivors). Plans
// are memoized and shared; callers must not mutate them.
func (c *Code) RepairPlan(failed []int) (*erasure.Plan, error) {
	s, err := c.solverFor(failed)
	if err != nil {
		return nil, err
	}
	return s.plan, nil
}

// Repair implements erasure.Code: it reads exactly the shards
// RepairPlan(failed) lists and computes only the failed rows.
func (c *Code) Repair(shards [][]byte, failed []int) error {
	if len(shards) != c.N() {
		return fmt.Errorf("%w: got %d, want %d", erasure.ErrShardCount, len(shards), c.N())
	}
	s, err := c.solverFor(failed)
	if err != nil {
		return err
	}
	size := -1
	for _, h := range s.plan.Helpers {
		switch helper := shards[h.Shard]; {
		case helper == nil:
			return fmt.Errorf("%w: helper shard %d is nil", erasure.ErrShardSize, h.Shard)
		case size == -1:
			size = len(helper)
		case len(helper) != size:
			return fmt.Errorf("%w: shard %d has %d bytes, want %d", erasure.ErrShardSize, h.Shard, len(helper), size)
		}
	}
	s.apply(shards, size)
	return nil
}

// Decodable reports whether the failed shard indices are recoverable
// from the survivors, exactly: the surviving generator rows have rank k
// iff every lost row is in their span, local-repair patterns included.
// The surviving data rows are unit rows, so that is the surviving parity
// rows, cut to the lost data columns, having full rank. It answers by
// elimination alone — no inversion, no compiled program, no solver-cache
// entry, and no heap while at most stackLost data shards are lost — so
// sampling many patterns (durability's fatality profile) costs no
// garbage and leaves the solvers the repair path shares alone. Non-MDS
// codes export it as erasure.PatternChecker's CanRecover; MDS codes must
// not, so that erasure.CanRecover keeps answering them with an integer
// compare.
func (c *Code) Decodable(failed []int) bool {
	var erased kernel.Mask
	lost := 0 // data shards among the failed
	for _, f := range failed {
		if f < 0 || f >= c.N() {
			return false
		}
		if f < c.k && !erased.Has(f) {
			lost++
		}
		erased.Set(f)
	}
	var basisBuf [stackLost * stackLost]byte
	var pivotBuf [stackLost]int
	basis, pivots := basisBuf[:], pivotBuf[:0]
	if lost > stackLost {
		basis, pivots = make([]byte, lost*lost), make([]int, 0, lost)
	}
	for r := c.k; r < c.N() && len(pivots) < lost; r++ {
		if erased.Has(r) {
			continue
		}
		row := basis[len(pivots)*lost:][:lost]
		x := 0
		for j, v := range c.gen.Row(r) {
			if erased.Has(j) {
				row[x] = v
				x++
			}
		}
		if p := reduce(basis, pivots, row); p >= 0 {
			pivots = append(pivots, p)
		}
	}
	return len(pivots) == lost
}

// stackLost bounds the lost data shards whose elimination Decodable runs
// in stack scratch: lost × lost bytes of basis and lost pivots.
const stackLost = 16

// solverFor returns the solver for a failed-index list, in any order and
// with duplicates allowed.
func (c *Code) solverFor(failed []int) (*solver, error) {
	for _, f := range failed {
		if f < 0 || f >= c.N() {
			return nil, fmt.Errorf("gensolve: invalid shard index %d", f)
		}
	}
	return c.solver(kernel.MaskOf(failed...))
}

func (c *Code) solver(erased kernel.Mask) (*solver, error) {
	return c.solvers.GetOrCompute(erased, func() (*solver, error) {
		return c.build(erased)
	})
}

func (c *Code) build(erased kernel.Mask) (*solver, error) {
	var surviving, lost []int
	for i := 0; i < c.N(); i++ {
		if erased.Has(i) {
			lost = append(lost, i)
		} else {
			surviving = append(surviving, i)
		}
	}
	if len(lost) == 0 {
		// Nothing erased: the empty plan and the empty program.
		return &solver{plan: &erasure.Plan{SubChunkTotal: 1}, prog: kernel.Compile(nil)}, nil
	}
	var helpers []int
	var rows [][]byte
	if c.local != nil {
		helpers, rows = c.local(lost)
	}
	if helpers == nil {
		basis, inputs := IndependentRows(c.gen, surviving, c.k)
		if len(inputs) < c.k {
			return nil, fmt.Errorf("%w: lost %v", erasure.ErrTooManyErasures, lost)
		}
		inv, err := basis.Invert()
		if err != nil {
			return nil, fmt.Errorf("gensolve: selected rows not invertible: %w", err)
		}
		helpers = inputs
		solved := c.gen.SubMatrix(lost).Mul(inv)
		for i := range lost {
			rows = append(rows, solved.Row(i))
		}
	}
	plan := &erasure.Plan{Failed: lost, Helpers: make([]erasure.HelperRead, len(helpers)), SubChunkTotal: 1}
	for i, h := range helpers {
		plan.Helpers[i] = erasure.HelperRead{Shard: h, SubChunks: wholeChunk, Runs: 1}
	}
	return &solver{plan: plan, prog: kernel.Compile(rows)}, nil
}

// wholeChunk is every helper's read: the one sub-chunk of an alpha = 1
// shard. Plans are immutable, so all of them share it.
var wholeChunk = []int{0}

// IndependentRows selects up to want linearly independent rows (in
// candidate order) from m, returning the selected square matrix and the
// chosen indices. When fewer than want independent rows exist the matrix
// is nil and the short index list is returned.
func IndependentRows(m *gfmat.Matrix, candidates []int, want int) (*gfmat.Matrix, []int) {
	chosen := independent(m, candidates, want)
	if len(chosen) < want {
		return nil, chosen
	}
	return m.SubMatrix(chosen), chosen
}

// independent is the row-echelon elimination behind IndependentRows: the
// first want candidates, in order, that are linearly independent of the
// ones chosen before them.
func independent(m *gfmat.Matrix, candidates []int, want int) []int {
	cols := m.Cols
	// Row i of echelon is chosen[i]'s row in reduce's form; the row past
	// the last chosen one is scratch for the candidate under test.
	echelon := make([]byte, want*cols)
	pivots := make([]int, 0, want)
	chosen := make([]int, 0, want)
	for _, r := range candidates {
		if len(chosen) == want {
			break
		}
		row := echelon[len(chosen)*cols:][:cols]
		copy(row, m.Row(r))
		if p := reduce(echelon, pivots, row); p >= 0 {
			pivots = append(pivots, p)
			chosen = append(chosen, r)
		}
	}
	return chosen
}

// reduce is one step of a row-echelon elimination. Row i of basis, as
// wide as row, is reduced by the rows before it and scaled to a leading 1
// at pivots[i]. reduce eliminates those pivots from row and returns row's
// own, scaling row to a leading 1 there, or -1 when row is in the span of
// the basis. It keeps no reference to its arguments, so they may live on
// the caller's stack.
func reduce(basis []byte, pivots []int, row []byte) int {
	cols := len(row)
	for i, p := range pivots {
		if row[p] != 0 {
			gf256.MulAddSlice(row[p], basis[i*cols:][:cols], row)
		}
	}
	pivot := slices.IndexFunc(row, func(b byte) bool { return b != 0 })
	if pivot >= 0 {
		gf256.MulSlice(gf256.Inv(row[pivot]), row, row)
	}
	return pivot
}
