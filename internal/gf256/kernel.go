package gf256

import "unsafe"

// Word-wide row kernels.
//
// The scalar loops in gf256.go process one byte per step through the full
// 256x256 product table; they already run near one byte per cycle and are
// the wall any per-byte table scheme hits in pure Go (the ISA-L/SIMD
// split-nibble technique needs a byte-shuffle instruction to pay off —
// emulated nibble lookups in scalar code are slower than the byte table).
//
// The kernels here restructure the algebra instead of the table. A
// matrix-row application computes
//
//	dst ^= c_0*src_0 ^ c_1*src_1 ^ ... ^ c_{k-1}*src_{k-1}
//
// and every coefficient is a sum of powers of two: c = Σ_b bit_b(c)·2^b.
// Because GF(2^8) addition is XOR and multiplication distributes, the row
// sum regroups by bit plane:
//
//	Σ_j c_j·v_j  =  Σ_b 2^b · ( XOR of v_j over j with bit b set in c_j )
//
// Multiplying a whole 64-bit word of packed field elements by 2 is six
// scalar ops (shift + carry fold of the 0x1d polynomial, SWAR-style), so
// the per-word work becomes a Horner descent over the eight bit planes —
// one doubling pass plus the plane's XORs — instead of one table lookup
// per byte per source. Eight bytes advance per step, the L1-resident
// accumulator band is the only intermediate, and the destination is
// touched once per word regardless of row width.
//
// When every operand is 8-byte aligned the kernels run over []uint64
// views of the shard buffers (the same technique crypto/subtle.XORBytes
// uses); equal-length guards ahead of the loops let the compiler drop the
// per-word bounds checks. Unaligned operands take the scalar table loop:
// product shards come from make, which aligns them, and Clay pads odd
// sub-chunks on this tier, so only tests pass misaligned buffers. The
// SWAR doubling only moves bits within byte lanes, so the word view is
// correct for either endianness.
//
// CompileRow turns a coefficient row into its bit-plane lists once. The
// erasure kernel package compiles whole matrices into RowPlan programs
// and adds banding across outputs and worker fan-out.

// bandWords is the accumulator band size in 64-bit words (2 KiB), chosen
// so the accumulator plus a dozen source bands stay L1-resident.
const bandWords = 256

// mul2x8 multiplies each of the eight packed GF(2^8) elements in v by 2:
// shift every byte left one bit and fold the carry bits back with the
// field polynomial 0x1d. Every operation stays within its byte lane.
func mul2x8(v uint64) uint64 {
	hi := v & 0x8080808080808080
	return ((v ^ hi) << 1) ^ ((hi >> 7) * Poly)
}

// wordView returns b viewed as machine words when b is 8-byte aligned,
// nil otherwise. The view shares b's backing array.
func wordView(b []byte) []uint64 {
	if len(b) < 8 {
		return nil
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)&7 != 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(p), len(b)/8)
}

// RowPlan is a coefficient row compiled into bit-plane form, ready to be
// applied to source slices. A RowPlan is immutable after CompileRow and
// safe for concurrent use.
type RowPlan struct {
	coeffs []byte     // original row, for the scalar tail
	bits   [8][]int32 // bits[b] = source indices with bit b set, b = 0 is LSB
	maxBit int        // highest b with a non-empty list, -1 if the row is zero

	// SIMD program: the non-zero columns in source order, plus their
	// per-coefficient kernel constants packed contiguously for the
	// assembly inner loop (64-byte split-nibble tables for AVX2, 8-byte
	// affine matrices for GFNI). Empty off amd64 / under purego.
	nzSrc []int32
	nzTbl []byte
	nzMat []uint64
}

// CompileRow compiles a coefficient row. Zero coefficients vanish from the
// program; a pure-XOR row (all coefficients 0 or 1) compiles to a single
// bit-plane with no doubling passes.
func CompileRow(coeffs []byte) *RowPlan {
	rp := &RowPlan{coeffs: append([]byte(nil), coeffs...), maxBit: -1}
	for j, c := range coeffs {
		if c != 0 {
			rp.nzSrc = append(rp.nzSrc, int32(j))
		}
		for b := 0; b < 8; b++ {
			if c>>b&1 == 1 {
				rp.bits[b] = append(rp.bits[b], int32(j))
				if b > rp.maxBit {
					rp.maxBit = b
				}
			}
		}
	}
	simdCompile(rp)
	return rp
}

// MulAdd computes dst[i] ^= Σ_j coeffs[j]*srcs[j][i] over the whole
// destination. Sources under zero coefficients may be nil; all others must
// match len(dst).
func (rp *RowPlan) MulAdd(srcs [][]byte, dst []byte) {
	rp.Apply(srcs, dst, 0, len(dst), false)
}

// Mul is MulAdd with overwrite semantics: dst[i] = Σ_j coeffs[j]*srcs[j][i].
func (rp *RowPlan) Mul(srcs [][]byte, dst []byte) {
	rp.Apply(srcs, dst, 0, len(dst), true)
}

// Apply runs the plan over dst[off:end) (overwrite or accumulate). Ranges
// from concurrent Apply calls may interleave freely as long as they do not
// overlap; results are byte-identical to a single serial pass because
// every output byte depends only on the same byte offset of the sources.
func (rp *RowPlan) Apply(srcs [][]byte, dst []byte, off, end int, overwrite bool) {
	if len(srcs) != len(rp.coeffs) {
		panic("gf256: RowPlan source count mismatch")
	}
	for j, c := range rp.coeffs {
		if c != 0 && len(srcs[j]) != len(dst) {
			panic("gf256: slice length mismatch in RowPlan")
		}
	}
	if off < 0 || end > len(dst) || off > end {
		panic("gf256: RowPlan range out of bounds")
	}
	if rp.maxBit < 0 { // zero row
		if overwrite {
			clear(dst[off:end])
		}
		return
	}
	if off == end {
		return
	}
	switch b := currentBackend(); {
	case b == backendGFNI512 || b >= backendAVX2 && end-off >= 32:
		// One segment (count = 1) through the tier's row kernel, the one
		// ApplyStrided runs. Its loads are unaligned, so every operand
		// layout takes it; the zmm kernel masks any remainder in-kernel.
		var ptrBuf [32]*byte
		var strideBuf [32]int
		ptrs, strides := ptrBuf[:0], strideBuf[:]
		if len(rp.nzSrc) > len(ptrBuf) {
			ptrs, strides = make([]*byte, 0, len(rp.nzSrc)), make([]int, len(rp.nzSrc))
		}
		for _, j := range rp.nzSrc {
			ptrs = append(ptrs, &srcs[j][off])
		}
		rp.applyStridedSIMD(ptrs, strides, &dst[off], 0, end-off, 1, overwrite, b)
		return
	case b >= backendAVX2 || b == backendScalar:
		// A ymm range under one vector, or the scalar tier.
		rp.tail(srcs, dst, off, end, overwrite)
		return
	}
	// Word path: all operands must be 8-byte aligned; anything else is
	// finished by the scalar tail below.
	dw := wordView(dst)
	if dw != nil && end-off >= 8 {
		// Keep the view table on the stack for typical row widths.
		var viewBuf [16][]uint64
		var views [][]uint64
		if len(srcs) <= len(viewBuf) {
			views = viewBuf[:len(srcs)]
		} else {
			views = make([][]uint64, len(srcs))
		}
		ok := true
		for j, c := range rp.coeffs {
			if c == 0 {
				continue
			}
			if views[j] = wordView(srcs[j]); views[j] == nil {
				ok = false
				break
			}
		}
		if ok {
			// Align the start to a word boundary, run the word kernels,
			// finish the sub-word remainder with the scalar tail.
			head := (8 - off%8) % 8
			rp.tail(srcs, dst, off, off+head, overwrite)
			off += head
			woff, wend := off/8, end/8
			rp.applyWords(views, dw, woff, wend, overwrite)
			rp.tail(srcs, dst, wend*8, end, overwrite)
			return
		}
	}
	rp.tail(srcs, dst, off, end, overwrite)
}

// applyWords runs the banded Horner descent over word views, covering
// destination words [woff, wend).
func (rp *RowPlan) applyWords(views [][]uint64, dst []uint64, woff, wend int, overwrite bool) {
	var acc [bandWords]uint64
	for woff < wend {
		nw := wend - woff
		if nw > bandWords {
			nw = bandWords
		}
		a := acc[:nw]
		first := true
		for b := rp.maxBit; b >= 0; b-- {
			list := rp.bits[b]
			i := 0
			for i == 0 || i < len(list) {
				g := len(list) - i
				if g > 4 {
					g = 4
				}
				stepWords(a, views, list[i:i+g], woff, i == 0 && !first, first && i == 0)
				if g == 0 {
					break
				}
				i += g
				first = false
			}
		}
		mergeWords(a, dst[woff:woff+nw], overwrite)
		woff += nw
	}
}

// stepWords advances one accumulator band pass: optionally doubles acc,
// then XORs in up to four source bands. init overwrites acc instead of
// accumulating (the first pass of a band). The equal-length guards ahead
// of each loop let the compiler prove every index in bounds.
func stepWords(acc []uint64, views [][]uint64, list []int32, woff int, double, init bool) {
	nw := len(acc)
	switch len(list) {
	case 0:
		if init {
			clear(acc)
			return
		}
		if double {
			for w := range acc {
				acc[w] = mul2x8(acc[w])
			}
		}
	case 1:
		a := views[list[0]][woff : woff+nw : woff+nw]
		if len(a) != len(acc) {
			panic("gf256: step operand length mismatch")
		}
		switch {
		case init:
			copy(acc, a)
		case double:
			for w := range acc {
				acc[w] = mul2x8(acc[w]) ^ a[w]
			}
		default:
			for w := range acc {
				acc[w] ^= a[w]
			}
		}
	case 2:
		a := views[list[0]][woff : woff+nw : woff+nw]
		b := views[list[1]][woff : woff+nw : woff+nw]
		if len(a) != len(acc) || len(b) != len(acc) {
			panic("gf256: step operand length mismatch")
		}
		switch {
		case init:
			for w := range acc {
				acc[w] = a[w] ^ b[w]
			}
		case double:
			for w := range acc {
				acc[w] = mul2x8(acc[w]) ^ a[w] ^ b[w]
			}
		default:
			for w := range acc {
				acc[w] ^= a[w] ^ b[w]
			}
		}
	case 3:
		a := views[list[0]][woff : woff+nw : woff+nw]
		b := views[list[1]][woff : woff+nw : woff+nw]
		c := views[list[2]][woff : woff+nw : woff+nw]
		if len(a) != len(acc) || len(b) != len(acc) || len(c) != len(acc) {
			panic("gf256: step operand length mismatch")
		}
		switch {
		case init:
			for w := range acc {
				acc[w] = a[w] ^ b[w] ^ c[w]
			}
		case double:
			for w := range acc {
				acc[w] = mul2x8(acc[w]) ^ a[w] ^ b[w] ^ c[w]
			}
		default:
			for w := range acc {
				acc[w] ^= a[w] ^ b[w] ^ c[w]
			}
		}
	default:
		a := views[list[0]][woff : woff+nw : woff+nw]
		b := views[list[1]][woff : woff+nw : woff+nw]
		c := views[list[2]][woff : woff+nw : woff+nw]
		d := views[list[3]][woff : woff+nw : woff+nw]
		if len(a) != len(acc) || len(b) != len(acc) || len(c) != len(acc) || len(d) != len(acc) {
			panic("gf256: step operand length mismatch")
		}
		switch {
		case init:
			for w := range acc {
				acc[w] = a[w] ^ b[w] ^ c[w] ^ d[w]
			}
		case double:
			for w := range acc {
				acc[w] = mul2x8(acc[w]) ^ a[w] ^ b[w] ^ c[w] ^ d[w]
			}
		default:
			for w := range acc {
				acc[w] ^= a[w] ^ b[w] ^ c[w] ^ d[w]
			}
		}
	}
}

// mergeWords moves the finished accumulator band into the destination.
func mergeWords(acc []uint64, dst []uint64, overwrite bool) {
	if len(dst) != len(acc) {
		panic("gf256: merge length mismatch")
	}
	if overwrite {
		copy(dst, acc)
		return
	}
	for w := range acc {
		dst[w] ^= acc[w]
	}
}

// tail is the scalar table loop: the scalar tier, sub-word ranges and
// unaligned operands on the word tier, and ranges under one vector on the
// ymm tiers.
func (rp *RowPlan) tail(srcs [][]byte, dst []byte, off, end int, overwrite bool) {
	for i := off; i < end; i++ {
		var acc byte
		for j, c := range rp.coeffs {
			if c == 0 {
				continue
			}
			acc ^= mulTable[c][srcs[j][i]]
		}
		if overwrite {
			dst[i] = acc
		} else {
			dst[i] ^= acc
		}
	}
}
