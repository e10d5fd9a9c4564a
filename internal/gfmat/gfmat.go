// Package gfmat provides dense matrices over GF(2^8) and the handful of
// linear-algebra operations erasure coding needs: multiplication, Gaussian
// inversion, and the standard generator-matrix constructions (systematic
// Vandermonde and Cauchy).
package gfmat

import (
	"errors"
	"fmt"

	"repro/internal/gf256"
)

// ErrSingular is returned when a matrix that must be invertible is not.
// For MDS generator matrices this indicates a caller bug (e.g. more
// erasures than parities).
var ErrSingular = errors.New("gfmat: matrix is singular")

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	Rows, Cols int
	Data       []byte // len == Rows*Cols
}

// New returns a zero matrix with the given dimensions.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("gfmat: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]byte, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) byte { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v byte) { m.Data[r*m.Cols+c] = v }

// Row returns a view (not a copy) of row r.
func (m *Matrix) Row(r int) []byte { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Mul returns m * other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("gfmat: dimension mismatch %dx%d * %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := New(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		orow := out.Row(i)
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			gf256.MulAddSlice(a, other.Row(k), orow)
		}
	}
	return out
}

// SubMatrix returns the matrix restricted to the given rows.
func (m *Matrix) SubMatrix(rows []int) *Matrix {
	out := New(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// Invert returns the inverse of a square matrix using Gauss-Jordan
// elimination with partial pivoting, or ErrSingular.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.Rows != m.Cols {
		panic("gfmat: inverting non-square matrix")
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if a.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Scale pivot row to make the pivot 1.
		p := a.At(col, col)
		if p != 1 {
			ip := gf256.Inv(p)
			gf256.MulSlice(ip, a.Row(col), a.Row(col))
			gf256.MulSlice(ip, inv.Row(col), inv.Row(col))
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			gf256.MulAddSlice(f, a.Row(col), a.Row(r))
			gf256.MulAddSlice(f, inv.Row(col), inv.Row(r))
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Vandermonde returns the rows x cols Vandermonde matrix V[i][j] = i^j
// (with 0^0 = 1), the classic Reed-Solomon starting point.
func Vandermonde(rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, gf256.Pow(byte(i), j))
		}
	}
	return m
}

// SystematicVandermonde returns an n x k generator matrix whose top k rows
// are the identity, obtained by Gaussian elimination on a Vandermonde
// matrix. Any k rows of the result are linearly independent, which is the
// MDS property Reed-Solomon relies on.
func SystematicVandermonde(n, k int) *Matrix {
	if n > 256 {
		panic("gfmat: n must be <= 256 for GF(2^8) Vandermonde")
	}
	v := Vandermonde(n, k)
	// Column-reduce so the top k x k block becomes the identity. We apply
	// elementary column operations, which preserve the "any k rows are
	// independent" property.
	for col := 0; col < k; col++ {
		// Ensure v[col][col] != 0 by swapping columns if needed.
		if v.At(col, col) == 0 {
			swapped := false
			for c2 := col + 1; c2 < k; c2++ {
				if v.At(col, c2) != 0 {
					swapCols(v, col, c2)
					swapped = true
					break
				}
			}
			if !swapped {
				panic("gfmat: vandermonde reduction failed") // cannot happen for distinct points
			}
		}
		p := v.At(col, col)
		if p != 1 {
			ip := gf256.Inv(p)
			scaleCol(v, col, ip)
		}
		for c2 := 0; c2 < k; c2++ {
			if c2 == col {
				continue
			}
			f := v.At(col, c2)
			if f == 0 {
				continue
			}
			mulAddCol(v, col, c2, f)
		}
	}
	return v
}

func swapCols(m *Matrix, a, b int) {
	for r := 0; r < m.Rows; r++ {
		va, vb := m.At(r, a), m.At(r, b)
		m.Set(r, a, vb)
		m.Set(r, b, va)
	}
}

func scaleCol(m *Matrix, c int, f byte) {
	for r := 0; r < m.Rows; r++ {
		m.Set(r, c, gf256.Mul(m.At(r, c), f))
	}
}

// mulAddCol sets col dst ^= f * col src.
func mulAddCol(m *Matrix, src, dst int, f byte) {
	for r := 0; r < m.Rows; r++ {
		m.Set(r, dst, m.At(r, dst)^gf256.Mul(f, m.At(r, src)))
	}
}

// Cauchy returns an n x k systematic generator matrix whose parity block is
// a Cauchy matrix 1/(x_i + y_j) with x_i = i+k and y_j = j. Every square
// submatrix of a Cauchy matrix is invertible, giving the MDS property
// directly (this mirrors Jerasure's cauchy_orig technique).
func Cauchy(n, k int) *Matrix {
	if n > 256 {
		panic("gfmat: n must be <= 256 for GF(2^8) Cauchy")
	}
	m := New(n, k)
	for i := 0; i < k; i++ {
		m.Set(i, i, 1)
	}
	for i := k; i < n; i++ {
		for j := 0; j < k; j++ {
			m.Set(i, j, gf256.Inv(byte(i)^byte(j)))
		}
	}
	return m
}
