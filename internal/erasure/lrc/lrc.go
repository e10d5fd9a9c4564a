// Package lrc implements Locally Repairable Codes in the layered style of
// Azure-LRC and Ceph's "lrc" plugin: k data chunks are partitioned into l
// local groups, each protected by one XOR local parity, plus g global
// Reed-Solomon parities over all data.
//
// The headline property (Gopalan et al., Huang et al.): a single chunk
// failure repairs by reading only its local group — k/l chunks instead of
// Reed-Solomon's k — trading extra storage (l+g parities) for repair I/O.
// Unlike MDS codes, not every pattern of l+g erasures is decodable;
// CanRecover reports decodability per pattern and the fault-injection
// guard consults it.
package lrc

import (
	"fmt"

	"repro/internal/erasure"
	"repro/internal/erasure/gensolve"
	"repro/internal/gf256"
	"repro/internal/gfmat"
)

// LRC is an LRC(k, l, g) code instance: gensolve.Code over the layered
// generator, with localRepair as its local-repair rule. Chunk order: k
// data, then l local parities (one per group), then g global parities.
type LRC struct {
	*gensolve.Code
	k, l      int
	groupSize int
}

// New constructs an LRC with k data chunks in l local groups (l must
// divide k) and g global parities.
func New(k, l, g int) (*LRC, error) {
	if k <= 0 || l <= 0 || g <= 0 {
		return nil, fmt.Errorf("lrc: k, l, g must be positive (k=%d l=%d g=%d)", k, l, g)
	}
	if k%l != 0 {
		return nil, fmt.Errorf("lrc: locality l=%d must divide k=%d", l, k)
	}
	n := k + l + g
	if n > 256 {
		return nil, fmt.Errorf("lrc: n=%d exceeds GF(2^8) limit", n)
	}
	gen := gfmat.New(n, k)
	for i := 0; i < k; i++ {
		gen.Set(i, i, 1)
	}
	groupSize := k / l
	for grp := 0; grp < l; grp++ {
		row := k + grp
		for j := grp * groupSize; j < (grp+1)*groupSize; j++ {
			gen.Set(row, j, 1) // XOR local parity
		}
	}
	// Global parities: Cauchy rows, guaranteed jointly independent with
	// any data subset.
	for gi := 0; gi < g; gi++ {
		row := k + l + gi
		x := byte(k + gi)
		for j := 0; j < k; j++ {
			gen.Set(row, j, gf256.Inv(x^byte(j)^0x80))
		}
	}
	c := &LRC{k: k, l: l, groupSize: groupSize}
	c.Code = gensolve.NewCode(gen, c.localRepair)
	return c, nil
}

func init() {
	// Registry signature is (k, m, d); for LRC, m is the global parity
	// count and d carries the locality l (Ceph's lrc plugin similarly
	// takes k/m/l). d == 0 defaults to 2 groups.
	erasure.Register("lrc", func(k, m, l int) (erasure.Code, error) {
		return New(k, l, m)
	}, func(k, m int) int { return 2 })
}

// Name implements erasure.Code.
func (c *LRC) Name() string { return "lrc" }

// groupOf returns the local group of a chunk, or -1 for global parities.
func (c *LRC) groupOf(chunk int) int {
	switch {
	case chunk < c.k:
		return chunk / c.groupSize
	case chunk < c.k+c.l:
		return chunk - c.k
	default:
		return -1
	}
}

// groupMembers returns the chunk indices of a group: its data chunks plus
// the local parity.
func (c *LRC) groupMembers(grp int) []int {
	out := make([]int, 0, c.groupSize+1)
	for j := grp * c.groupSize; j < (grp+1)*c.groupSize; j++ {
		out = append(out, j)
	}
	return append(out, c.k+grp)
}

// CanRecover implements erasure.PatternChecker: unlike an MDS code, not
// every pattern of M erasures is decodable.
func (c *LRC) CanRecover(failed []int) bool { return c.Decodable(failed) }

// localRepair is the local-repair rule: when every lost chunk is the only
// loss in its local group (and none is a global parity), each is the XOR
// of its group's other members, so the repair reads groupSize chunks per
// loss — the locality win — instead of a full decode's k.
func (c *LRC) localRepair(lost []int) (helpers []int, rows [][]byte) {
	seen := map[int]bool{}
	for _, f := range lost {
		grp := c.groupOf(f)
		if grp < 0 || seen[grp] {
			return nil, nil
		}
		seen[grp] = true
		for _, m := range c.groupMembers(grp) {
			if m != f {
				helpers = append(helpers, m)
			}
		}
	}
	for i := range lost {
		row := make([]byte, len(helpers))
		for j := i * c.groupSize; j < (i+1)*c.groupSize; j++ {
			row[j] = 1
		}
		rows = append(rows, row)
	}
	return helpers, rows
}
