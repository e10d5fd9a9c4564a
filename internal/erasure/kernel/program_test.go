package kernel

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gf256"
)

// refRun applies the matrix rows with scalar slice operations.
func refRun(rows [][]byte, srcs, dsts [][]byte, overwrite bool) {
	for i, row := range rows {
		if overwrite {
			clear(dsts[i])
		}
		for j, c := range row {
			gf256.MulAddSlice(c, srcs[j], dsts[i])
		}
	}
}

func randomCase(t testing.TB, rowsN, width, size int, seed int64) (rows, srcs, a, b [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	rows = make([][]byte, rowsN)
	for i := range rows {
		rows[i] = make([]byte, width)
		rng.Read(rows[i])
	}
	srcs = make([][]byte, width)
	for j := range srcs {
		srcs[j] = make([]byte, size)
		rng.Read(srcs[j])
	}
	a = make([][]byte, rowsN)
	b = make([][]byte, rowsN)
	for i := range a {
		a[i] = make([]byte, size)
		rng.Read(a[i])
		b[i] = append([]byte(nil), a[i]...)
	}
	return
}

func TestProgramMatchesScalar(t *testing.T) {
	for _, size := range []int{1, 7, 8, 1023, 4096, 16384 + 3} {
		for _, overwrite := range []bool{false, true} {
			rows, srcs, got, want := randomCase(t, 3, 9, size, int64(size))
			p := Compile(rows)
			p.run(srcs, got, overwrite, 1)
			refRun(rows, srcs, want, overwrite)
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("size %d overwrite=%v: row %d diverges from scalar", size, overwrite, i)
				}
			}
		}
	}
}

// TestProgramParallelIdentical forces the fan-out (this repo's CI
// machine may have a single CPU) and requires byte-identical output to
// the serial pass across worker counts and sizes, including sizes that
// do not divide evenly into chunks or words.
func TestProgramParallelIdentical(t *testing.T) {
	// Three rows: every size is at or above the fan-out threshold.
	_, threshold, _ := Tuning()
	for _, size := range []int{threshold, threshold/3 + 5, 256<<10 + 1} {
		rows, srcs, serial, par := randomCase(t, 3, 9, size, int64(size)*7)
		p := Compile(rows)
		p.run(srcs, serial, true, 1)
		for _, workers := range []int{2, 3, 4, 16} {
			for i := range par {
				clear(par[i])
			}
			p.run(srcs, par, true, workers)
			for i := range par {
				if !bytes.Equal(par[i], serial[i]) {
					t.Fatalf("size %d workers %d: row %d parallel output differs from serial", size, workers, i)
				}
			}
		}
	}
}

func TestProgramZeroColumnsAllowNilSources(t *testing.T) {
	rows := [][]byte{{0, 2, 0, 3}}
	srcs := make([][]byte, 4)
	srcs[1] = []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	srcs[3] = []byte{9, 8, 7, 6, 5, 4, 3, 2, 1}
	dst := [][]byte{make([]byte, 9)}
	want := make([]byte, 9)
	gf256.MulAddSlice(2, srcs[1], want)
	gf256.MulAddSlice(3, srcs[3], want)
	Compile(rows).Run(srcs, dst, true)
	if !bytes.Equal(dst[0], want) {
		t.Fatal("nil sources under zero columns mishandled")
	}
}
