package gf256

import (
	"testing"
	"testing/quick"
)

// TestAddIsXor: field addition is XOR, and a coefficient of one is how
// the kernels add a source into a destination.
func TestAddIsXor(t *testing.T) {
	dst := []byte{0x53}
	MulAddSlice(1, []byte{0xCA}, dst)
	if dst[0] != 0x53^0xCA {
		t.Fatalf("0x53 + 0xCA = %#x", dst[0])
	}
}

// refMul is a bit-by-bit "Russian peasant" multiplication modulo the field
// polynomial, used as an independent oracle for the table-based Mul.
func refMul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		carry := a&0x80 != 0
		a <<= 1
		if carry {
			a ^= Poly
		}
		b >>= 1
	}
	return p
}

func TestMulKnownValues(t *testing.T) {
	cases := []struct{ a, b, want byte }{
		{0, 0, 0},
		{0, 7, 0},
		{1, 7, 7},
		{2, 2, 4},
		{0x80, 2, 0x1d}, // overflow wraps through the polynomial
	}
	for _, c := range cases {
		if got := Mul(c.a, c.b); got != c.want {
			t.Errorf("Mul(%#x,%#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

func TestMulMatchesReference(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if Mul(byte(a), byte(b)) != refMul(byte(a), byte(b)) {
				t.Fatalf("Mul(%#x,%#x) diverges from reference", a, b)
			}
		}
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(a, b^c) == Mul(a, b)^Mul(a, c) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("Inv(%#x) = %#x but product != 1", a, inv)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

// TestDiv: division is multiplication by the inverse, the form the
// matrix inversion uses.
func TestDiv(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Mul(Mul(a, Inv(b)), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Mul(3, Inv(0))
}

// TestExpLogRoundTrip: the log table, from which Mul and Inv are built,
// inverts the generator's powers.
func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if Pow(2, int(logTable[a])) != byte(a) || expTable[logTable[a]] != byte(a) {
			t.Fatalf("alpha^log(%#x) != %#x", a, a)
		}
	}
}

func TestExpGeneratesWholeGroup(t *testing.T) {
	seen := map[byte]bool{}
	for i := 0; i < 255; i++ {
		seen[Pow(2, i)] = true
	}
	if len(seen) != 255 {
		t.Fatalf("alpha generates %d elements, want 255", len(seen))
	}
	if seen[0] {
		t.Fatal("alpha^i produced zero")
	}
}

func TestPow(t *testing.T) {
	if Pow(0, 0) != 1 || Pow(5, 0) != 1 {
		t.Fatal("x^0 must be 1")
	}
	if Pow(0, 3) != 0 {
		t.Fatal("0^n must be 0 for n>0")
	}
	f := func(a byte, nRaw uint8) bool {
		n := int(nRaw%10) + 1
		want := byte(1)
		for i := 0; i < n; i++ {
			want = Mul(want, a)
		}
		return Pow(a, n) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAddSlice(t *testing.T) {
	src := []byte{1, 2, 3, 0xff, 0x80}
	dst := []byte{9, 8, 7, 6, 5}
	want := make([]byte, len(src))
	for i := range src {
		want[i] = dst[i] ^ Mul(0x1b, src[i])
	}
	MulAddSlice(0x1b, src, dst)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("index %d: got %#x want %#x", i, dst[i], want[i])
		}
	}
}

func TestMulAddSliceSpecialCoefficients(t *testing.T) {
	src := []byte{1, 2, 3}
	dst := []byte{4, 5, 6}
	MulAddSlice(0, src, dst) // no-op
	if dst[0] != 4 || dst[1] != 5 || dst[2] != 6 {
		t.Fatal("c=0 must not modify dst")
	}
	MulAddSlice(1, src, dst) // pure xor
	if dst[0] != 5 || dst[1] != 7 || dst[2] != 5 {
		t.Fatalf("c=1 xor wrong: %v", dst)
	}
}

func TestSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	MulAddSlice(2, []byte{1}, []byte{1, 2})
}

func TestMulSlice(t *testing.T) {
	src := []byte{0, 1, 2, 0xaa}
	dst := make([]byte, 4)
	MulSlice(3, src, dst)
	for i := range src {
		if dst[i] != Mul(3, src[i]) {
			t.Fatalf("index %d mismatch", i)
		}
	}
}

func TestXorWordsAllLengths(t *testing.T) {
	// MulAddSlice's c = 1 path, the word-wide XOR, must agree with the
	// byte loop at every length and alignment tail.
	for n := 0; n < 64; n++ {
		src := make([]byte, n)
		dst := make([]byte, n)
		want := make([]byte, n)
		for i := 0; i < n; i++ {
			src[i] = byte(i*13 + 7)
			dst[i] = byte(i * 31)
			want[i] = dst[i] ^ src[i]
		}
		MulAddSlice(1, src, dst)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("len %d index %d: got %#x want %#x", n, i, dst[i], want[i])
			}
		}
	}
}

func BenchmarkMulAddSlice(b *testing.B) {
	src := make([]byte, 64*1024)
	dst := make([]byte, 64*1024)
	for i := range src {
		src[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlice(0x8e, src, dst)
	}
}
