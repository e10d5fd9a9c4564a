// Package shec implements a Shingled Erasure Code in the style of Ceph's
// "shec" plugin (Miyamae et al.): SHEC(k, m, c) computes m parities, each
// over a sliding ("shingled") window of the k data chunks, sized so that
// any c concurrent failures remain recoverable while single-failure
// repair reads only a window of roughly k*c/m chunks instead of k.
//
// SHEC trades a little durability certainty for recovery efficiency: some
// erasure patterns wider than c are unrecoverable even though m chunks
// are redundant. CanRecover answers pattern decodability exactly (by
// generator rank), and the ECFault white-box guard consults it.
package shec

import (
	"fmt"

	"repro/internal/erasure"
	"repro/internal/erasure/gensolve"
	"repro/internal/gf256"
	"repro/internal/gfmat"
)

// SHEC is a SHEC(k, m, c) instance: gensolve.Code over the shingled
// generator, with windowRepair as its local-repair rule. Chunk order: k
// data then m parities.
type SHEC struct {
	*gensolve.Code
	k      int
	window int
	starts []int // window start (data index) per parity
	gen    *gfmat.Matrix
}

// New constructs SHEC(k, m, c): m shingled parities with target
// durability c (1 <= c <= m <= k).
func New(k, m, c int) (*SHEC, error) {
	if k <= 0 || m <= 0 || c <= 0 {
		return nil, fmt.Errorf("shec: k, m, c must be positive (k=%d m=%d c=%d)", k, m, c)
	}
	if c > m {
		return nil, fmt.Errorf("shec: c=%d cannot exceed m=%d", c, m)
	}
	if m > k {
		return nil, fmt.Errorf("shec: m=%d cannot exceed k=%d", m, k)
	}
	if k+m > 256 {
		return nil, fmt.Errorf("shec: n=%d exceeds GF(2^8) limit", k+m)
	}
	// Window width w = ceil(k*c/m); parity j starts at floor(j*k/m) and
	// wraps around the data chunks.
	w := (k*c + m - 1) / m
	if w > k {
		w = k
	}
	gen := gfmat.New(k+m, k)
	s := &SHEC{k: k, window: w, gen: gen}
	for i := 0; i < k; i++ {
		gen.Set(i, i, 1)
	}
	for j := 0; j < m; j++ {
		start := j * k / m
		s.starts = append(s.starts, start)
		row := k + j
		for o := 0; o < w; o++ {
			col := (start + o) % k
			// Cauchy-style coefficients keep overlapping windows jointly
			// independent where possible.
			gen.Set(row, col, gf256.Inv(byte(k+j)^byte(col)^0x80))
		}
	}
	s.Code = gensolve.NewCode(gen, s.windowRepair)
	return s, nil
}

func init() {
	// Registry signature (k, m, d): d carries the durability target c,
	// defaulting to ceil(m/2) as Ceph's shec examples commonly use.
	erasure.Register("shec", func(k, m, c int) (erasure.Code, error) {
		return New(k, m, c)
	}, func(k, m int) int { return (m + 1) / 2 })
}

// Name implements erasure.Code.
func (s *SHEC) Name() string { return "shec" }

// coveredBy lists the parities whose window contains data chunk d.
func (s *SHEC) coveredBy(d int) []int {
	var out []int
	for j, start := range s.starts {
		for o := 0; o < s.window; o++ {
			if (start+o)%s.k == d {
				out = append(out, j)
				break
			}
		}
	}
	return out
}

// windowMembers returns the data chunks covered by parity j.
func (s *SHEC) windowMembers(j int) []int {
	out := make([]int, 0, s.window)
	for o := 0; o < s.window; o++ {
		out = append(out, (s.starts[j]+o)%s.k)
	}
	return out
}

// CanRecover implements erasure.PatternChecker: patterns of up to C
// failures are always recoverable; wider ones may or may not be.
func (s *SHEC) CanRecover(failed []int) bool { return s.Decodable(failed) }

// windowRepair is the local-repair rule: a single lost chunk is solved
// from one parity equation, reading that parity's window (fewer than
// Reed-Solomon's k) instead of a full decode's inputs.
func (s *SHEC) windowRepair(lost []int) (helpers []int, rows [][]byte) {
	if len(lost) != 1 {
		return nil, nil
	}
	f := lost[0]
	if f >= s.k {
		// A parity re-encodes from its own window.
		helpers = s.windowMembers(f - s.k)
		row := make([]byte, len(helpers))
		for i, d := range helpers {
			row[i] = s.gen.At(f, d)
		}
		return helpers, [][]byte{row}
	}
	cover := s.coveredBy(f)
	if len(cover) == 0 {
		return nil, nil
	}
	// Solve the first covering parity's equation for the lost chunk,
	// folding the 1/row[f] scaling into the coefficients.
	j := cover[0]
	eq := s.gen.Row(s.k + j)
	inv := gf256.Inv(eq[f])
	var row []byte
	for _, d := range s.windowMembers(j) {
		if d != f {
			helpers = append(helpers, d)
			row = append(row, gf256.Mul(inv, eq[d]))
		}
	}
	helpers = append(helpers, s.k+j) // the parity shard itself
	row = append(row, inv)
	return helpers, [][]byte{row}
}
