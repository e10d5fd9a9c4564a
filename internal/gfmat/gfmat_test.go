package gfmat

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gf256"
)

func TestIdentityMul(t *testing.T) {
	id := Identity(4)
	m := &Matrix{Rows: 4, Cols: 4, Data: []byte{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}}
	got := id.Mul(m)
	for i := range m.Data {
		if got.Data[i] != m.Data[i] {
			t.Fatal("I*M != M")
		}
	}
	got = m.Mul(id)
	for i := range m.Data {
		if got.Data[i] != m.Data[i] {
			t.Fatal("M*I != M")
		}
	}
}

func TestMulDimensions(t *testing.T) {
	a := New(2, 3)
	b := New(3, 5)
	c := a.Mul(b)
	if c.Rows != 2 || c.Cols != 5 {
		t.Fatalf("got %dx%d", c.Rows, c.Cols)
	}
}

// TestMulVecMatchesMul: a matrix times a vector, as the codecs compute it
// (each row compiled to a gf256 row plan over one-byte sources), equals
// Mul with the vector as a one-column matrix.
func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(5, 7)
	for i := range m.Data {
		m.Data[i] = byte(rng.Intn(256))
	}
	v := make([]byte, 7)
	for i := range v {
		v[i] = byte(rng.Intn(256))
	}
	col := New(7, 1)
	copy(col.Data, v)
	want := m.Mul(col)
	srcs := make([][]byte, len(v))
	for j := range v {
		srcs[j] = v[j : j+1]
	}
	for i := 0; i < 5; i++ {
		got := []byte{0}
		gf256.CompileRow(m.Row(i)).Mul(srcs, got)
		if got[0] != want.At(i, 0) {
			t.Fatalf("row %d: %#x != %#x", i, got[0], want.At(i, 0))
		}
	}
}

func TestInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		m := New(n, n)
		for i := range m.Data {
			m.Data[i] = byte(rng.Intn(256))
		}
		inv, err := m.Invert()
		if errors.Is(err, ErrSingular) {
			continue // random singular matrix, fine
		}
		if err != nil {
			t.Fatal(err)
		}
		prod := m.Mul(inv)
		id := Identity(n)
		for i := range id.Data {
			if prod.Data[i] != id.Data[i] {
				t.Fatalf("trial %d: M*M^-1 != I", trial)
			}
		}
	}
}

func TestInvertSingular(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 2, Data: []byte{
		1, 2,
		1, 2,
	}}
	if _, err := m.Invert(); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestInvertIdentity(t *testing.T) {
	id := Identity(6)
	inv, err := id.Invert()
	if err != nil {
		t.Fatal(err)
	}
	for i := range id.Data {
		if inv.Data[i] != id.Data[i] {
			t.Fatal("I^-1 != I")
		}
	}
}

func TestSubMatrix(t *testing.T) {
	m := &Matrix{Rows: 3, Cols: 2, Data: []byte{1, 2, 3, 4, 5, 6}}
	s := m.SubMatrix([]int{2, 0})
	if s.At(0, 0) != 5 || s.At(0, 1) != 6 || s.At(1, 0) != 1 || s.At(1, 1) != 2 {
		t.Fatalf("submatrix wrong: %v", s.Data)
	}
}

func TestVandermonde(t *testing.T) {
	v := Vandermonde(4, 3)
	// Row i is [1, i, i^2].
	for i := 0; i < 4; i++ {
		if v.At(i, 0) != 1 {
			t.Fatalf("row %d col 0 != 1", i)
		}
		if v.At(i, 1) != byte(i) {
			t.Fatalf("row %d col 1 != %d", i, i)
		}
		if v.At(i, 2) != gf256.Mul(byte(i), byte(i)) {
			t.Fatalf("row %d col 2 wrong", i)
		}
	}
}

// mdsProperty checks that every combination of k rows of an n x k generator
// matrix is invertible (the MDS property that makes any k chunks sufficient
// to decode).
func mdsProperty(t *testing.T, g *Matrix, n, k int) {
	t.Helper()
	idx := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			sub := g.SubMatrix(idx)
			if _, err := sub.Invert(); err != nil {
				t.Fatalf("rows %v not invertible: %v", idx, err)
			}
			return
		}
		for i := start; i < n; i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

func TestSystematicVandermondeIsSystematic(t *testing.T) {
	g := SystematicVandermonde(9, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := byte(0)
			if i == j {
				want = 1
			}
			if g.At(i, j) != want {
				t.Fatalf("top block not identity at (%d,%d)", i, j)
			}
		}
	}
}

func TestSystematicVandermondeMDS(t *testing.T) {
	mdsProperty(t, SystematicVandermonde(8, 5), 8, 5)
	mdsProperty(t, SystematicVandermonde(6, 3), 6, 3)
}

func TestCauchyIsSystematic(t *testing.T) {
	g := Cauchy(12, 9)
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			want := byte(0)
			if i == j {
				want = 1
			}
			if g.At(i, j) != want {
				t.Fatalf("top block not identity at (%d,%d)", i, j)
			}
		}
	}
}

func TestCauchyMDS(t *testing.T) {
	mdsProperty(t, Cauchy(8, 5), 8, 5)
	mdsProperty(t, Cauchy(7, 4), 7, 4)
}

func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := New(3, 4), New(4, 2), New(2, 5)
		for _, m := range []*Matrix{a, b, c} {
			for i := range m.Data {
				m.Data[i] = byte(rng.Intn(256))
			}
		}
		l := a.Mul(b).Mul(c)
		r := a.Mul(b.Mul(c))
		for i := range l.Data {
			if l.Data[i] != r.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInvert12x12(b *testing.B) {
	g := Cauchy(24, 12)
	rows := []int{0, 2, 3, 5, 7, 8, 13, 15, 16, 19, 21, 23}
	sub := g.SubMatrix(rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sub.Invert(); err != nil {
			b.Fatal(err)
		}
	}
}
