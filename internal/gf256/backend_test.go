package gf256

import (
	"bytes"
	"fmt"
	"testing"
)

// forceBackend switches the active backend for one subtest, restoring on
// cleanup. Tests using it must not run in parallel.
func forceBackend(t *testing.T, name string) {
	t.Helper()
	restore, err := SetBackend(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restore)
}

func TestBackendReporting(t *testing.T) {
	// Strongest first, and every tier below the cap down to scalar: the
	// reverse of a prefix of backendNames, whatever ECFAULT_BACKEND says.
	avail := Backends()
	if len(avail) < 1 || len(avail) > len(backendNames) {
		t.Fatalf("Backends() = %v", avail)
	}
	for i, b := range avail {
		if want := backendNames[len(avail)-1-i]; b != want {
			t.Fatalf("Backends() = %v: entry %d is %q, want %q", avail, i, b, want)
		}
	}
	found := false
	for _, b := range avail {
		if b == Backend() {
			found = true
		}
	}
	if !found {
		t.Fatalf("active backend %q not in available set %v", Backend(), avail)
	}
	if _, err := SetBackend("no-such-backend"); err == nil {
		t.Fatal("SetBackend accepted an unknown backend")
	}
}

func TestSetBackendRestores(t *testing.T) {
	was := Backend()
	avail := Backends()
	weakest := avail[len(avail)-1]
	restore, err := SetBackend(weakest)
	if err != nil {
		t.Fatal(err)
	}
	if Backend() != weakest {
		t.Fatalf("SetBackend(%s) left backend %q", weakest, Backend())
	}
	restore()
	if Backend() != was {
		t.Fatalf("restore left backend %q, want %q", Backend(), was)
	}
}

func TestCapBackend(t *testing.T) {
	cases := []struct {
		hw   int32
		env  string
		want int32
	}{
		{backendGFNI, "", backendGFNI},
		{backendGFNI, "avx2", backendAVX2},
		{backendGFNI, "gfni", backendGFNI},
		{backendGFNI, "1", backendWord},
		{backendGFNI, "true", backendWord},
		{backendGFNI, "word", backendWord},
		{backendGFNI, "scalar", backendScalar},
		{backendGFNI, "garbage", backendWord},
		{backendAVX2, "gfni", backendAVX2}, // cap above hardware is a no-op
		{backendWord, "", backendWord},
		{backendWord, "avx2", backendWord},
		{backendGFNI512, "", backendGFNI512},
		{backendGFNI512, "gfni512", backendGFNI512},
		{backendGFNI512, "gfni", backendGFNI},
		{backendGFNI512, "avx2", backendAVX2},
		{backendGFNI512, "word", backendWord},
		{backendGFNI512, "1", backendWord},
		{backendGFNI, "gfni512", backendGFNI}, // cap above hardware is a no-op
	}
	for _, c := range cases {
		if got := capBackend(c.hw, c.env); got != c.want {
			t.Errorf("capBackend(%s, %q) = %s, want %s",
				backendNames[c.hw], c.env, backendNames[got], backendNames[c.want])
		}
	}
}

// backendRowCases are the coefficient rows the identity tests sweep:
// zero rows, identity rows, mixes of 0/1 with general coefficients, and
// dense high-bit rows.
var backendRowCases = [][]byte{
	{0},
	{1},
	{2},
	{0x8e},
	{0, 0, 0},
	{1, 1, 1, 1},
	{0, 1, 2, 0x53},
	{0xff, 0xfe, 0x80, 0x1d, 1, 0, 29},
	{7, 0, 0, 1, 113, 214, 0xaa, 0x55, 3, 99, 250, 17},
}

// TestBackendsRowIdentity requires every available backend to produce
// byte-identical row-kernel output across fuzzed lengths, operand
// alignments 0-7, and accumulate/overwrite modes. The reference is the
// bit-by-bit refMul oracle, independent of tables and kernels.
func TestBackendsRowIdentity(t *testing.T) {
	lengths := []int{0, 1, 7, 8, 19, 31, 32, 33, 50, 63, 64, 65, 127, 200, 1024, 4096 + 21}
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			forceBackend(t, backend)
			for _, coeffs := range backendRowCases {
				rp := CompileRow(coeffs)
				for _, n := range lengths {
					for _, align := range []int{0, 1, 3, 7} {
						for _, overwrite := range []bool{false, true} {
							checkRowIdentity(t, rp, coeffs, n, align, overwrite)
						}
					}
				}
			}
		})
	}
}

func checkRowIdentity(t *testing.T, rp *RowPlan, coeffs []byte, n, align int, overwrite bool) {
	t.Helper()
	srcs := make([][]byte, len(coeffs))
	for j := range srcs {
		backing := make([]byte, n+8)
		s := backing[align : align+n]
		for i := range s {
			s[i] = byte(i*13 + j*101 + 7)
		}
		srcs[j] = s
	}
	dstBacking := make([]byte, n+8)
	dst := dstBacking[align : align+n]
	want := make([]byte, n)
	for i := range dst {
		dst[i] = byte(i*29 + 3)
		want[i] = dst[i]
	}
	if overwrite {
		clear(want)
	}
	for j, c := range coeffs {
		for i := range want {
			want[i] ^= refMul(c, srcs[j][i])
		}
	}
	rp.Apply(srcs, dst, 0, n, overwrite)
	if !bytes.Equal(dst, want) {
		i := 0
		for ; dst[i] == want[i]; i++ {
		}
		t.Fatalf("row %v len=%d align=%d overwrite=%v: byte %d = %#x, want %#x",
			coeffs, n, align, overwrite, i, dst[i], want[i])
	}
}

// TestBackendsSliceIdentity covers the single-coefficient MulSlice /
// MulAddSlice entries (gfmat and gensolve row operations) across
// backends, lengths, and alignments.
func TestBackendsSliceIdentity(t *testing.T) {
	lengths := []int{0, 1, 31, 32, 33, 50, 64, 100, 1000}
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			forceBackend(t, backend)
			for _, c := range []byte{0, 1, 2, 29, 0x8e, 0xff} {
				for _, n := range lengths {
					for _, align := range []int{0, 5} {
						backing := make([]byte, n+8)
						src := backing[align : align+n]
						for i := range src {
							src[i] = byte(i*7 + 11)
						}
						addDst := make([]byte, n)
						mulDst := make([]byte, n)
						wantAdd := make([]byte, n)
						wantMul := make([]byte, n)
						for i := range addDst {
							addDst[i] = byte(i + 1)
							wantAdd[i] = addDst[i] ^ refMul(c, src[i])
							wantMul[i] = refMul(c, src[i])
						}
						MulAddSlice(c, src, addDst)
						MulSlice(c, src, mulDst)
						if !bytes.Equal(addDst, wantAdd) {
							t.Fatalf("MulAddSlice(c=%#x, n=%d, align=%d) diverges", c, n, align)
						}
						if !bytes.Equal(mulDst, wantMul) {
							t.Fatalf("MulSlice(c=%#x, n=%d, align=%d) diverges", c, n, align)
						}
					}
				}
			}
		})
	}
}

// TestBackendsApplyRanges checks that split Apply ranges (the parallel
// executor's contract) stay byte-identical to one pass on every backend,
// with cuts that strand sub-vector tails in the middle of the stripe.
func TestBackendsApplyRanges(t *testing.T) {
	coeffs := []byte{3, 0, 1, 0x9c, 77}
	n := 1000
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			forceBackend(t, backend)
			rp := CompileRow(coeffs)
			srcs := make([][]byte, len(coeffs))
			for j := range srcs {
				srcs[j] = make([]byte, n)
				for i := range srcs[j] {
					srcs[j][i] = byte(i ^ (j * 37))
				}
			}
			serial := make([]byte, n)
			rp.Apply(srcs, serial, 0, n, true)
			for _, cuts := range [][]int{{500}, {33}, {1, 999}, {31, 65, 800}} {
				split := make([]byte, n)
				prev := 0
				for _, cut := range append(cuts, n) {
					rp.Apply(srcs, split, prev, cut, true)
					prev = cut
				}
				if !bytes.Equal(split, serial) {
					t.Fatalf("cuts %v: split apply differs from serial", cuts)
				}
			}
		})
	}
}

func BenchmarkBackendsMulAddRow(b *testing.B) {
	coeffs := []byte{2, 29, 113, 0x8e, 7, 250, 99, 1, 173}
	for _, backend := range Backends() {
		restore, err := SetBackend(backend)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range []int{4 << 10, 64 << 10} {
			srcs := make([][]byte, len(coeffs))
			for j := range srcs {
				srcs[j] = make([]byte, n)
			}
			dst := make([]byte, n)
			rp := CompileRow(coeffs)
			b.Run(fmt.Sprintf("%s/%dKiB", backend, n>>10), func(b *testing.B) {
				b.SetBytes(int64(n * len(coeffs)))
				for i := 0; i < b.N; i++ {
					rp.MulAdd(srcs, dst)
				}
			})
		}
		restore()
	}
}
