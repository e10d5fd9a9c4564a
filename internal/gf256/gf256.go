// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same polynomial used by the
// Jerasure and ISA-L libraries that back Ceph's Reed-Solomon plugins, so
// encodings produced here are bit-compatible with matrices built the same
// way over that polynomial.
//
// Addition and subtraction are XOR. Multiplication uses log/exp tables,
// and a full 256x256 product table accelerates the bulk slice operations
// that dominate encode/decode time.
package gf256

import (
	"encoding/binary"
	"fmt"
)

// Poly is the primitive polynomial (with the x^8 term implicit) used to
// construct the field.
const Poly = 0x1d

var (
	expTable [512]byte // expTable[i] = alpha^i, doubled to avoid mod 255 in Mul
	logTable [256]byte // logTable[x] = log_alpha(x), logTable[0] unused
	mulTable [256][256]byte
	invTable [256]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		expTable[i] = x
		logTable[x] = byte(i)
		// multiply x by alpha (= 2) in GF(2^8)
		carry := x&0x80 != 0
		x <<= 1
		if carry {
			x ^= Poly
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
	for a := 1; a < 256; a++ {
		la := int(logTable[a])
		for b := 1; b < 256; b++ {
			mulTable[a][b] = expTable[la+int(logTable[b])]
		}
		invTable[a] = expTable[255-la]
	}
}

// Mul returns the product a*b in GF(2^8).
func Mul(a, b byte) byte { return mulTable[a][b] }

// Inv returns the multiplicative inverse of a. It panics if a == 0,
// which indicates a logic error in the caller (singular matrix rows are
// rejected before inversion is attempted).
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return invTable[a]
}

// Pow returns a**n in GF(2^8), with Pow(a, 0) == 1 for any a, and
// Pow(0, n) == 0 for n > 0.
func Pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return expTable[(int(logTable[a])*n)%255]
}

// MulSlice sets dst[i] = c*src[i]. The slices must be the same length.
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("gf256: slice length mismatch %d != %d", len(src), len(dst)))
	}
	switch c {
	case 0:
		clear(dst)
	case 1:
		copy(dst, src)
	default:
		mt := &mulTable[c]
		for i, s := range src {
			dst[i] = mt[s]
		}
	}
}

// MulAddSlice sets dst[i] ^= c*src[i], the fused multiply-accumulate at the
// heart of matrix-based erasure coding. The slices must be the same length.
func MulAddSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("gf256: slice length mismatch %d != %d", len(src), len(dst)))
	}
	switch c {
	case 0:
	case 1:
		xorWords(src, dst)
	default:
		mt := &mulTable[c]
		for i, s := range src {
			dst[i] ^= mt[s]
		}
	}
}

// xorWords XORs src into dst eight bytes at a time, falling back to bytes
// for the tail. Encoding and decoding are XOR-heavy (coefficient 1 rows,
// local parities), so the word-wide path matters.
func xorWords(src, dst []byte) {
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		v := binary.LittleEndian.Uint64(dst[i:]) ^ binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], v)
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}
