package clay

import (
	"repro/internal/gf256"
	"repro/internal/parallel"
)

// Multi-plane batched transforms.
//
// Clay's hot loops apply the same coupling coefficients in every plane;
// only the sub-chunk offsets differ. The per-plane formulation therefore
// issues alpha tiny kernel calls per pairwise transform pass — at 4 KiB
// shards (~50 B sub-chunks) the call overhead dwarfs the arithmetic. The
// batched paths here run whole plane sets through single
// gf256.ApplyStrided calls, wherever the planes form a regular geometry:
//
//   - Decode runs column tile by column tile: a tile is bytes [a, a+w) of
//     every sub-chunk, U is compact (nt x alpha x w) and every node's C is
//     read in place from its shard through a view (base a, stride the
//     sub-chunk size). The planes z with digit(z, y) == x are q^y runs of
//     q^(t-1-y) consecutive planes, q^(t-y) apart, and each one's
//     companion plane setDigit(z, y, x') sits at the same shift. A score
//     group that covers every plane (encode, or erasures that fill whole
//     grid columns) runs each (node, companion-column) pair in strided
//     calls and its MDS solve over the whole tile; every other group runs
//     per plane (decodePlane). The erased nodes' final U -> C conversion
//     always spans the whole plane space, so it always runs in this
//     strided form, straight into the output shards. When a sub-chunk
//     fits in one tile every view is compact and a run of planes is one
//     segment. Tiles are independent, so runs of them fan out over the
//     worker budget, one slab per worker.
//   - Single repair solves directly over the shard layout: the pairwise
//     transforms, the failed node's row of the MDS solve, and the
//     companion-plane recovery address every helper's beta repair-plane
//     sub-chunks in place through gf256.ApplyStrided's per-operand
//     base/stride geometry, so no coupled symbol is ever gathered or
//     scattered; only the uncoupled scratch is compact.
//
// Both paths compute the same GF(2^8) operations on the same bytes as the
// per-plane code, so outputs are byte-identical; the identity tests call
// each formulation directly and compare them on every backend.

// stridedRepairMax is the work width from which single repair runs plane
// by plane, where one plane of U per node stays in cache, instead of
// streaming beta planes per node through repairStrided. Decode has no
// gate: a score group runs decodeWhole exactly when it spans every plane.
// Median MB/s of 3 runs of BenchmarkRepairFormulations (repaired shard),
// clay(12,9,11), 2-vCPU Xeon, gfni512, go1.24.0:
//
//	sub-chunk B      56  128   256   512   816 1024 2048 4096 8192 12952 103568
//	repair strided  520  794  1093  1087  1037 1085 1171 1290  995   916    562
//	     per plane  126  297   471   611   730  949 1046 1441 1636  1433    886
//
// The repair crossover lies at 2-4 KiB, where codec_stripe (56, 816,
// 12952, 103568 B) has no series, so the gate stays where it is.
const stridedRepairMax = 2048

// tileBytes is Decode's column tile width: the slab of one worker holds
// U for alpha planes of it per node, about 2 MiB for clay(12,9,11),
// whatever the shard size. Median MB/s (data encoded) of 3 runs of
// BenchmarkDecodeFormulations' Decode arm at each width, clay(12,9,11),
// 2-vCPU Xeon, gfni512, go1.24.0; a sub-chunk no wider than the tile is
// one tile, so those cells differ only by the host's noise (about 10%):
//
//	sub-chunk B       816  2048  4096  8192 12952 103568
//	1 worker   512   3902  3919  3518  2946  2174   1860
//	          1024   4263  4189  3826  3746  3456   2700
//	          2048   4229  3868  3770  3511  3243   2644
//	          4096   4391  3881  3443  3443  3133   2791
//	          8192   4725  4202  3696  3395  3165   2745
//	2 workers  512   4115  4133  5196  6153  4262   3241
//	          1024   4218  4236  5283  4937  4460   3997
//	          2048   4148  4058  5300  5799  5096   4362
//	          4096   4539  4040  3557  5820  4306   4566
//	          8192   4648  3744  3085  3061  4354   3721
//
// 2 KiB leads at codec_stripe's 1 MiB sub-chunk on two workers and is
// within the noise of the best elsewhere from 1 KiB up; narrower tiles
// pay a call per plane segment, and wider ones leave too few tiles to
// share between workers. Most of the gain over whole-shard U planes is
// the fan-out: on two workers Decode at 12952 and 103568 B sub-chunks
// read 2.1-2.5x the full-shard slab's MB/s, at one worker 1.1-1.4x. The
// SIMD tiers load unaligned, so they read C in place; only the word
// kernels' padded detour gathers a tile.
const tileBytes = 2048

// spares holds the working slabs of finished Clay calls: Decode's tile
// buffers (Encode and multi-failure Repair run through Decode), single
// repair's uncoupled symbols, the zero window standing in for the virtual
// shards of a shortened code, and the word kernels' padded copies. Reusing
// them (rather than making them per call) matters because that memory is
// written and discarded every call, and its zeroing, and the collections
// it brings on, rival the GF arithmetic itself. The stack is
// package-level, never hung off a code instance, so calls racing on a
// shared registry instance each hold an independent slab for the length
// of one call (or, in Decode, of one worker's tiles). Unlike a sync.Pool
// it never drops a slab at a collection, so a warm call allocates the same
// bytes every time; it keeps only slabs up to keepMax, so what it holds
// does not grow with the shard. A slab comes back dirty: every buffer
// carved from it is written before it is read, except the zero window,
// which is cleared.
var spares parallel.Spares[*scratch]

// scratch is one slab of the spare stack with the slice headers that a
// decode worker indexes it and the shards through, so that a warm worker
// allocates nothing. The headers are cleared when the slab goes back, so
// the stack never holds on to a caller's shards.
type scratch struct {
	bytes []byte
	views []view
	heads [][]byte
}

// keepMax is the largest slab the spare stack keeps for this code: what
// one worker of a tiled decode carves at the full tile width, padded
// copies and zero window included (about 2 MiB for clay(12,9,11) on the
// SIMD tiers, 4 MiB on the word kernels' padded detour). Larger requests,
// per-plane repair of very large shards and the padded repair detour,
// allocate their slab and drop it.
func (c *Clay) keepMax() int { return (c.nt + 1 + c.N()) * line(c.alpha*tileBytes) }

// slab is one call's (or one decode worker's) share of the spare stack,
// carved front to back.
type slab struct {
	s    *scratch
	keep bool // false for a slab too large to keep
	free []byte
}

// getSlab takes a slab of n bytes from the spare stack; release hands it
// back.
func (c *Clay) getSlab(n int) slab {
	if n > c.keepMax() {
		return slab{s: &scratch{}, free: make([]byte, n)}
	}
	s := spares.Get()
	if s == nil {
		s = new(scratch)
	}
	if cap(s.bytes) < n {
		s.bytes = make([]byte, n)
	}
	return slab{s: s, keep: true, free: s.bytes[:n]}
}

func (s *slab) release() {
	if s.keep {
		clear(s.s.views)
		clear(s.s.heads)
		spares.Put(s.s)
	}
}

// headers returns the slab's nv views and nh slice headers, whatever they
// last held.
func (s *slab) headers(nv, nh int) ([]view, [][]byte) {
	sc := s.s
	if cap(sc.views) < nv {
		sc.views = make([]view, nv)
	}
	if cap(sc.heads) < nh {
		sc.heads = make([][]byte, nh)
	}
	sc.views, sc.heads = sc.views[:nv], sc.heads[:nh]
	return sc.views, sc.heads
}

// line rounds a buffer up to whole 64-byte cache lines: every buffer
// carved from a slab starts on a line, as a fresh allocation of its size
// would, so the vector kernels' stores into it do not split lines.
func line(n int) int { return (n + 63) &^ 63 }

// take carves the next n bytes, holding whatever the last call left.
func (s *slab) take(n int) []byte {
	b := s.free[:n:n]
	s.free = s.free[line(n):]
	return b
}

// zeros carves n cleared bytes.
func (s *slab) zeros(n int) []byte {
	b := s.take(n)
	clear(b)
	return b
}

// view addresses one node's symbols within a column tile: plane z's bytes
// start at buf[base+z*stride]. A shard is read, or written, in place with
// the tile's column offset as base and the sub-chunk size as stride; a
// compact tile buffer has base 0 and the tile width as stride.
type view struct {
	buf          []byte
	base, stride int
}

func (v view) off(z int) int { return v.base + z*v.stride }

// at is plane z's w bytes.
func (v view) at(z, w int) []byte {
	o := v.off(z)
	return v.buf[o : o+w : o+w]
}

// compact views a tile buffer whose planes are w bytes apart.
func compact(b []byte, w int) view { return view{buf: b, stride: w} }

// copyPlanes copies the planes z with digit(z, y) == x from src to dst:
// the unpaired vertices, whose coupled and uncoupled symbols agree. When
// both views are compact a run of planes is one copy.
func (c *Clay) copyPlanes(dst, src view, x, y, w int) {
	runLen, runGap := c.pow[c.t-1-y], c.pow[c.t-y]
	seg, step := w, 1
	if dst.stride == w && src.stride == w {
		seg, step = runLen*w, runLen
	}
	for r := x * runLen; r < c.alpha; r += runGap {
		for z := r; z < r+runLen; z += step {
			copy(dst.buf[dst.off(z):dst.off(z)+seg], src.buf[src.off(z):src.off(z)+seg])
		}
	}
}

// couplePlanes applies a two-source transform to every plane z with
// digit(z, y) == xp, reading b at the companion plane setDigit(z, y, x):
//
//	dst[z] = plan(a[z], b[z + (x-xp)*q^(t-1-y)])
//
// The planes form q^y runs of q^(t-1-y) consecutive planes, and the
// companion is a constant shift, so every operand is one base and one
// stride per call. When all three views are compact (a sub-chunk that
// fits in one tile), a run is one segment and the whole set one call;
// otherwise a plane is one w-byte segment, and the set takes one call per
// run or one per plane offset within a run, whichever is fewer.
func (c *Clay) couplePlanes(plan *gf256.RowPlan, a, b, dst view, x, xp, y, w int) {
	runLen, runGap, runs := c.pow[c.t-1-y], c.pow[c.t-y], c.pow[y]
	first, shift := xp*runLen, (x-xp)*runLen
	calls, step, seg, count, gap := runLen, 1, w, runs, runGap
	if a.stride == w && b.stride == w && dst.stride == w {
		calls, seg = 1, runLen*w
	} else if runLen > runs {
		calls, step, count, gap = runs, runGap, runLen, 1
	}
	srcs := [2][]byte{a.buf, b.buf}
	for i := 0; i < calls; i++ {
		z := first + i*step
		srcBase := [2]int{a.off(z), b.off(z + shift)}
		srcStride := [2]int{gap * a.stride, gap * b.stride}
		plan.ApplyStrided(srcs[:], dst.buf, dst.off(z), gap*dst.stride, srcBase[:], srcStride[:], seg, count, true)
	}
}

// decodeWhole computes U for every node across all alpha planes of a tile
// (w bytes each), for a score group that covers the whole plane space. A
// plane whose companion node is erased scores one above its companion
// plane, so in such a group no companion is erased: every transform reads
// C only.
func (c *Clay) decodeWhole(erased []bool, C []view, U [][]byte, dec *planeSolver, w int, srcs, dsts [][]byte) {
	for u := 0; u < c.nt; u++ {
		if erased[u] {
			continue
		}
		x, y := c.nodeXY(u)
		for xp := 0; xp < c.q; xp++ {
			if xp == x {
				c.copyPlanes(compact(U[u], w), C[u], x, y, w)
			} else {
				c.couplePlanes(c.pairRow, C[u], C[xp+y*c.q], compact(U[u], w), x, xp, y, w)
			}
		}
	}
	dec.solveSerial(srcs, dsts, func(u int) []byte { return U[u] })
}

// convertUC is the final U -> C conversion for the erased nodes: every
// plane's U is known, so each (node, companion-column) pair converts in
// strided calls over the whole plane space, straight into C's view.
func (c *Clay) convertUC(erased []bool, C []view, U [][]byte, w int) {
	for u := 0; u < c.nt; u++ {
		if !erased[u] {
			continue
		}
		x, y := c.nodeXY(u)
		for xp := 0; xp < c.q; xp++ {
			if xp == x {
				c.copyPlanes(C[u], compact(U[u], w), x, y, w)
			} else {
				c.couplePlanes(c.coupleRow, compact(U[u], w), compact(U[xp+y*c.q], w), C[u], x, xp, y, w)
			}
		}
	}
}

// repairStrided is the zero-copy batched single-failure repair: it solves
// directly over the shard layout. All coupled-symbol reads during single
// repair hit only the beta repair-plane sub-chunks — planes z with
// digit(z, y0) == x0, which form nRuns = pow[y0] runs of runLen =
// pow[t-1-y0] consecutive planes spaced runStride = pow[t-y0] apart. The
// pairwise transforms, the failed node's row of the MDS solve, and the
// companion-plane recovery address those sub-chunks in place through
// gf256.ApplyStrided's per-operand base/stride geometry (shard space:
// stride runStride*scs per run; compact scratch: stride runLen*scs), so
// helper bytes are never gathered into scratch and recovered bytes
// are written straight into the output shard. Only the uncoupled symbols
// live in compact rank-ordered scratch — rank p = a*runLen + i maps to
// plane z = a*runStride + first + i — carved from the call's slab
// (repairNeed sizes it).
func (c *Clay) repairStrided(shards [][]byte, failedExt, scs int, out []byte, s *slab) error {
	u0 := c.internalIndex(failedExt)
	x0, y0 := c.nodeXY(u0)
	bb := c.beta * scs

	runLen := c.pow[c.t-1-y0]
	runStride := c.pow[c.t-y0]
	nRuns := c.pow[y0]
	first := x0 * runLen
	rl := runLen * scs    // run bytes, compact space (runs are contiguous)
	rs := runStride * scs // run stride, shard space

	erased := make([]bool, c.nt)
	for x := 0; x < c.q; x++ {
		erased[x+y0*c.q] = true // whole column y0 unknown in U-space
	}
	dec, err := c.planeDecoder(erased)
	if err != nil {
		return err
	}

	// Compact U per node and the step-3 scratch, then one run-width zero
	// window standing in for virtual shards (read with stride 0).
	uComp := make([][]byte, c.nt)
	for u := range uComp {
		uComp[u] = s.take(bb)
	}
	u2 := s.take(bb)
	var zeroRun []byte
	if c.nt > c.N() {
		zeroRun = s.zeros(rl)
	}

	// cBuf returns the buffer holding node u's coupled symbols: the shard
	// itself for real helpers (addressed strided), the shared zero window
	// for virtual nodes (stride 0). The failed node's C is never read.
	cBuf := func(u int) (buf []byte, real bool) {
		ext := c.externalIndex(u)
		if ext == -1 {
			return zeroRun, false
		}
		if ext == failedExt {
			panic("clay: repair read from failed shard")
		}
		return shards[ext], true
	}

	pair := make([][]byte, 2)
	pb := make([]int, 2) // per-source base offsets
	ps := make([]int, 2) // per-source strides

	// Step 1: U for all nodes outside column y0, one strided batch per
	// (node, companion-column, run-group), reading C from the shards in
	// place. The repair-plane selection with digit(z, y) == xp splits on
	// whether digit y is encoded above or below digit y0 in the plane
	// number.
	for u := 0; u < c.nt; u++ {
		x, y := c.nodeXY(u)
		if y == y0 {
			continue
		}
		cu, realU := cBuf(u)
		if y < y0 {
			// Digit y lives in the run index a = (z - first - i)/runStride:
			// selected a's form runs of aRL consecutive values, q*aRL
			// apart; each a-run is one ApplyStrided call whose segments are
			// whole plane runs (contiguous in compact space, runStride
			// apart in shard space). The companion plane shift
			// (x-xp)*pow[t-1-y] is (x-xp)*aRL runs.
			aRL := c.pow[y0-1-y]
			nA := c.pow[y]
			for xp := 0; xp < c.q; xp++ {
				var cp []byte
				var realC bool
				comp := xp + y*c.q
				if xp != x {
					cp, realC = cBuf(comp)
				}
				for j := 0; j < nA; j++ {
					a := xp*aRL + j*c.q*aRL
					if xp == x {
						// Unpaired vertices: U = C (zero for virtual nodes).
						if !realU {
							clear(uComp[u][a*rl : (a+aRL)*rl])
							continue
						}
						for i := 0; i < aRL; i++ {
							zo := (a+i)*rs + first*scs
							copy(uComp[u][(a+i)*rl:(a+i+1)*rl], cu[zo:zo+rl])
						}
						continue
					}
					pair[0], pair[1] = cu, cp
					pb[0], ps[0] = 0, 0
					if realU {
						pb[0], ps[0] = a*rs+first*scs, rs
					}
					pb[1], ps[1] = 0, 0
					if realC {
						pb[1], ps[1] = (a+(x-xp)*aRL)*rs+first*scs, rs
					}
					c.pairRow.ApplyStrided(pair, uComp[u], a*rl, rl, pb, ps, rl, aRL, true)
				}
			}
		} else {
			// y > y0: digit y lives inside each run — blocks of iRL bytes,
			// iStr apart, at matching offsets in shard and compact space
			// (runs are contiguous in both). One call per plane run.
			iRL := c.pow[c.t-1-y] * scs
			iStr := c.pow[c.t-y] * scs
			nI := rl / iStr
			for xp := 0; xp < c.q; xp++ {
				var cp []byte
				var realC bool
				comp := xp + y*c.q
				shift := (x - xp) * iRL
				if xp != x {
					cp, realC = cBuf(comp)
				}
				for a := 0; a < nRuns; a++ {
					dstBase := a*rl + xp*iRL
					srcZ := a*rs + first*scs + xp*iRL
					if xp == x {
						if !realU {
							for l := 0; l < nI; l++ {
								clear(uComp[u][dstBase+l*iStr : dstBase+l*iStr+iRL])
							}
							continue
						}
						for l := 0; l < nI; l++ {
							copy(uComp[u][dstBase+l*iStr:dstBase+l*iStr+iRL], cu[srcZ+l*iStr:srcZ+l*iStr+iRL])
						}
						continue
					}
					pair[0], pair[1] = cu, cp
					pb[0], ps[0] = 0, 0
					if realU {
						pb[0], ps[0] = srcZ, iStr
					}
					pb[1], ps[1] = 0, 0
					if realC {
						pb[1], ps[1] = srcZ+shift, iStr
					}
					c.pairRow.ApplyStrided(pair, uComp[u], dstBase, iStr, pb, ps, iRL, nI, true)
				}
			}
		}
	}

	// Step 2: MDS-solve the q unknowns of column y0 across all repair
	// planes at once. The failed node's repair-plane sub-chunks are
	// unpaired (C = U), so its reconstruction row writes strided straight
	// into the output shard — the other lost rows stay compact for the
	// step-3 coupling.
	srcs := make([][]byte, len(dec.survivors))
	sb := make([]int, len(srcs)) // all zero: compact buffers start at 0
	st := make([]int, len(srcs))
	for si, sv := range dec.survivors {
		srcs[si] = uComp[sv]
		st[si] = rl
	}
	for li, plan := range dec.rowPlans() {
		l := dec.lost[li]
		if l == u0 {
			plan.ApplyStrided(srcs, out, first*scs, rs, sb, st, rl, nRuns, true)
		} else {
			// Compact rows are contiguous, so the full-buffer multiply is
			// one strided call with a single bb-byte segment.
			plan.ApplyStrided(srcs, uComp[l], 0, bb, sb, st, bb, 1, true)
		}
	}

	// Step 3: recover the failed node's sub-chunks in the companion planes
	// via the coupling relations with the column-y0 survivors. Both
	// transforms per survivor are single strided batches: the uncouple
	// reads the survivor's C from its shard in place, and the couple
	// writes the companion planes w = setDigit(z, y0, x) — byte offset
	// x*rl + a*rs — straight into the output shard.
	for x := 0; x < c.q; x++ {
		if x == x0 {
			continue
		}
		us := x + y0*c.q
		cu, realC := cBuf(us)
		// U2 = (C(x,y0) - U(x,y0)) / gamma
		pair[0], pair[1] = cu, uComp[us]
		pb[0], ps[0] = 0, 0
		if realC {
			pb[0], ps[0] = first*scs, rs
		}
		pb[1], ps[1] = 0, rl
		c.uncoupleRow.ApplyStrided(pair, u2, 0, rl, pb, ps, rl, nRuns, true)
		// C(x0,y0,w) = U2 + gamma * U(x,y0)
		pair[0], pair[1] = u2, uComp[us]
		pb[0], ps[0] = 0, rl
		pb[1], ps[1] = 0, rl
		c.coupleRow.ApplyStrided(pair, out, x*rl, rs, pb, ps, rl, nRuns, true)
	}
	return nil
}
