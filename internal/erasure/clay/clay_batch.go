package clay

import (
	"sync"
	"sync/atomic"

	"repro/internal/gf256"
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
//   - The planes z with digit(z, y) == x are q^y runs of q^(t-1-y)
//     consecutive planes, q^(t-y) apart, and each one's companion plane
//     setDigit(z, y, x') sits at the same shift. A decode score group that
//     covers every plane (encode, or erasures that fill whole grid
//     columns) runs each (node, companion-column) pair as one strided call
//     and its MDS solve as one full-buffer Program.Run; every other group
//     runs per plane (decodePlane). The erased nodes' final U -> C
//     conversion always spans the whole plane space, so it always runs in
//     this strided form.
//   - Single repair solves directly over the shard layout: the pairwise
//     transforms, the failed node's row of the MDS solve, and the
//     companion-plane recovery address every helper's beta repair-plane
//     sub-chunks in place through gf256.ApplyStrided's per-operand
//     base/stride geometry, so no coupled symbol is ever gathered or
//     scattered; only the uncoupled scratch is compact.
//
// Both paths compute the exact same GF(2^8) operations on the same bytes
// as the per-plane code, so outputs are byte-identical; the conformance
// suite enforces that across backends with batching toggled
// (SetBatching(false) forces the per-plane group transforms and repair).

// batchOff disables the batched paths when set. Stored inverted so the
// zero value means "batching on".
var batchOff atomic.Bool

// Zero-copy repair (no gather/scatter to degrade into memcpy) wins
// through 1 KiB sub-chunks on every measured tier, with the per-plane path
// pulling ahead from 2 KiB (BenchmarkKernelClayRepairSweep tracks the
// crossover). Decode has no gate: its whole-space transforms match the
// per-plane path at 12.9 KB and 103 KB sub-chunks. The repair gate is a
// var overridable by SetBatchLimits (identity tests push arbitrarily large
// sub-chunks through the batched path); 0 means "the measured default".
var batchRepairMaxSubChunk = 0

// batchRepairLimit returns the sub-chunk size gate for zero-copy batched
// repair.
func batchRepairLimit() int {
	if batchRepairMaxSubChunk != 0 {
		return batchRepairMaxSubChunk
	}
	return 2048
}

// Batching reports whether the multi-plane batched decode/repair paths are
// active.
func Batching() bool { return !batchOff.Load() }

// SetBatching toggles the batched paths and returns a function restoring
// the previous setting. It is meant for tests and benchmarks comparing the
// batched and per-plane formulations; both produce byte-identical output.
func SetBatching(on bool) (restore func()) {
	prev := batchOff.Load()
	batchOff.Store(!on)
	return func() { batchOff.Store(prev) }
}

// SetBatchLimits overrides the sub-chunk size gate above which batched
// repair yields to the per-plane code, returning a restore function; 0
// restores the measured default. Identity tests use it to push
// arbitrarily large sub-chunks through the batched implementation; it is
// not safe concurrently with Repair calls.
func SetBatchLimits(repairMax int) (restore func()) {
	prev := batchRepairMaxSubChunk
	batchRepairMaxSubChunk = repairMax
	return func() { batchRepairMaxSubChunk = prev }
}

// scratch pools the one working slab of every Clay call: Decode's U planes
// (Encode and multi-failure Repair run through Decode), single repair's
// uncoupled symbols, the zero window standing in for the virtual shards of
// a shortened code, and the word kernels' padded copies. Pooling (rather
// than per-call makes) matters because that memory is written and
// discarded every call: twelve full shards of U per clay(12,9,11) decode,
// whose zeroing, and the collections it brings on, rival the GF arithmetic
// itself. The pool is
// package-level, never hung off a code instance, so calls racing on a
// shared registry instance each hold an independent slab for the length of
// one call. A slab comes back dirty: every buffer carved from it is
// written before it is read, except the zero window, which is cleared.
var scratch = sync.Pool{New: func() any { b := []byte(nil); return &b }}

// slab is one call's share of the scratch pool, carved front to back.
type slab struct {
	p    *[]byte
	free []byte
}

// getSlab takes a slab of n bytes from the pool; release hands it back.
func getSlab(n int) slab {
	p := scratch.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	return slab{p: p, free: (*p)[:n]}
}

func (s *slab) release() { scratch.Put(s.p) }

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

// copyPlanes copies the planes z with digit(z, y) == x from src to dst:
// the unpaired vertices, whose coupled and uncoupled symbols agree.
func (c *Clay) copyPlanes(dst, src []byte, x, y, scs int) {
	run := c.pow[c.t-1-y] * scs
	for off := x * run; off < len(dst); off += c.pow[c.t-y] * scs {
		copy(dst[off:off+run], src[off:off+run])
	}
}

// couplePlanes applies a two-source transform to every plane z with
// digit(z, y) == xp in one strided call, reading b at the companion plane
// setDigit(z, y, x):
//
//	dst[z] = plan(a[z], b[z + (x-xp)*q^(t-1-y)])
//
// Each of the q^y runs of q^(t-1-y) planes is one segment, so every
// operand is one base and one stride, the companion a constant shift.
func (c *Clay) couplePlanes(plan *gf256.RowPlan, a, b, dst []byte, x, xp, y, scs int) {
	run := c.pow[c.t-1-y] * scs
	stride := c.pow[c.t-y] * scs
	base := xp * run
	srcs := [2][]byte{a, b}
	srcBase := [2]int{base, base + (x-xp)*run}
	srcStride := [2]int{stride, stride}
	plan.ApplyStrided(srcs[:], dst, base, stride, srcBase[:], srcStride[:], run, c.pow[y], true)
}

// decodeWhole computes U for every node across all alpha planes, for a
// score group that covers the whole plane space. A plane whose companion
// node is erased scores one above its companion plane, so in such a group
// no companion is erased: every transform reads C only.
func (c *Clay) decodeWhole(erased []bool, C, U [][]byte, dec *planeSolver, scs int, srcs, dsts [][]byte) {
	for u := 0; u < c.nt; u++ {
		if erased[u] {
			continue
		}
		x, y := c.nodeXY(u)
		for xp := 0; xp < c.q; xp++ {
			if xp == x {
				c.copyPlanes(U[u], C[u], x, y, scs)
			} else {
				c.couplePlanes(c.pairRow, C[u], C[xp+y*c.q], U[u], x, xp, y, scs)
			}
		}
	}
	dec.solve(srcs, dsts, func(u int) []byte { return U[u] })
}

// convertUC is the final U -> C conversion for the erased nodes: every
// plane's U is known, so each (node, companion-column) pair converts in
// one strided call over the whole plane space.
func (c *Clay) convertUC(erased []bool, C, U [][]byte, scs int) {
	for u := 0; u < c.nt; u++ {
		if !erased[u] {
			continue
		}
		x, y := c.nodeXY(u)
		for xp := 0; xp < c.q; xp++ {
			if xp == x {
				c.copyPlanes(C[u], U[u], x, y, scs)
			} else {
				c.couplePlanes(c.coupleRow, U[u], U[xp+y*c.q], C[u], x, xp, y, scs)
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
