// Package gensolve provides erasure decoding for arbitrary
// generator-matrix codes (LRC, SHEC, ...): given the code's n x k
// generator and an erasure pattern, it selects k linearly independent
// surviving rows and expresses every lost symbol as a combination of
// them. Codes whose decodability is pattern-dependent (non-MDS) use the
// same machinery to answer "is this pattern recoverable" exactly.
package gensolve

import (
	"errors"
	"fmt"

	"repro/internal/erasure/kernel"
	"repro/internal/gf256"
	"repro/internal/gfmat"
)

// ErrUndecodable is returned when the surviving rows do not span the data.
var ErrUndecodable = errors.New("gensolve: erasure pattern not decodable")

// Solver expresses lost shards over a set of surviving input shards. The
// reconstruction rows are compiled into a kernel program at build time, so
// Apply is a single program execution per stripe.
type Solver struct {
	// Inputs are the surviving shard indices the solution reads.
	Inputs []int
	// Lost are the erased shard indices, in ascending order.
	Lost []int
	// LostRows[i] are the coefficients over Inputs reconstructing Lost[i].
	LostRows [][]byte

	prog *kernel.Program
}

// Apply reconstructs the lost shards in place. Input shards must be
// non-nil and equally sized.
func (s *Solver) Apply(shards [][]byte, size int) {
	if len(s.Lost) == 0 {
		return
	}
	if s.prog == nil {
		// Solvers built by hand in tests compile on first use.
		s.prog = kernel.Compile(s.LostRows)
	}
	srcs := make([][]byte, len(s.Inputs))
	for j, src := range s.Inputs {
		srcs[j] = shards[src]
	}
	dsts := make([][]byte, len(s.Lost))
	for i := range dsts {
		dsts[i] = make([]byte, size)
	}
	s.prog.Run(srcs, dsts, true)
	for i, lost := range s.Lost {
		shards[lost] = dsts[i]
	}
}

// Cache memoizes solvers per erasure pattern for one generator. Fills
// are singleflight and the cache is bounded by the shared
// derived-artifact size (kernel.DecodeCacheSize), so one Cache serves
// concurrent goroutines without duplicate solves.
type Cache struct {
	gen *gfmat.Matrix
	k   int

	lru *kernel.LRU[*Solver]
}

// NewCache wraps a generator matrix (n rows, k columns).
func NewCache(gen *gfmat.Matrix) *Cache {
	return &Cache{gen: gen, k: gen.Cols, lru: kernel.NewLRU[*Solver](kernel.DecodeCacheSize)}
}

// Solver returns the decode solution for the given erasure flags (length
// n), or ErrUndecodable.
func (c *Cache) Solver(erased []bool) (*Solver, error) {
	if len(erased) != c.gen.Rows {
		return nil, fmt.Errorf("gensolve: erased mask has %d entries, want %d", len(erased), c.gen.Rows)
	}
	return c.lru.GetOrCompute(kernel.MaskOfBools(erased), func() (*Solver, error) {
		return c.build(erased)
	})
}

func (c *Cache) build(erased []bool) (*Solver, error) {
	var surviving, lost []int
	for i := 0; i < c.gen.Rows; i++ {
		if erased[i] {
			lost = append(lost, i)
		} else {
			surviving = append(surviving, i)
		}
	}
	basis, inputs := IndependentRows(c.gen, surviving, c.k)
	if len(inputs) < c.k {
		return nil, fmt.Errorf("%w: lost %v", ErrUndecodable, lost)
	}
	inv, err := basis.Invert()
	if err != nil {
		return nil, fmt.Errorf("gensolve: selected rows not invertible: %w", err)
	}
	s := &Solver{Inputs: inputs, Lost: lost}
	for _, li := range lost {
		row := c.gen.SubMatrix([]int{li}).Mul(inv)
		s.LostRows = append(s.LostRows, row.Row(0))
	}
	s.prog = kernel.Compile(s.LostRows)
	return s, nil
}

// CanRecover reports whether the erasure flags are decodable.
func (c *Cache) CanRecover(erased []bool) bool {
	_, err := c.Solver(erased)
	return err == nil
}

// IndependentRows selects up to want linearly independent rows (in
// candidate order) from m, returning the selected square matrix and the
// chosen indices. When fewer than want independent rows exist the matrix
// is nil and the short index list is returned.
func IndependentRows(m *gfmat.Matrix, candidates []int, want int) (*gfmat.Matrix, []int) {
	cols := m.Cols
	echelon := make([][]byte, 0, want)
	pivots := make([]int, 0, want)
	chosen := make([]int, 0, want)
	for _, r := range candidates {
		row := append([]byte(nil), m.Row(r)...)
		for i, p := range pivots {
			if row[p] != 0 {
				gf256.MulAddSlice(row[p], echelon[i], row)
			}
		}
		pivot := -1
		for j := 0; j < cols; j++ {
			if row[j] != 0 {
				pivot = j
				break
			}
		}
		if pivot == -1 {
			continue
		}
		gf256.MulSlice(gf256.Inv(row[pivot]), row, row)
		echelon = append(echelon, row)
		pivots = append(pivots, pivot)
		chosen = append(chosen, r)
		if len(chosen) == want {
			break
		}
	}
	if len(chosen) < want {
		return nil, chosen
	}
	return m.SubMatrix(chosen), chosen
}
