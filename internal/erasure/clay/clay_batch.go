package clay

import (
	"sync"
	"sync/atomic"

	"repro/internal/erasure/kernel"
	"repro/internal/gf256"
)

// Multi-plane batched transforms.
//
// Clay's hot loops apply the same coupling coefficients in every plane;
// only the sub-chunk offsets differ. The per-plane formulation therefore
// issues alpha tiny kernel calls per pairwise transform pass — at 4 KiB
// shards (~50 B sub-chunks) the call overhead dwarfs the arithmetic. The
// batched paths here gather all planes sharing a coefficient pair into
// one gf256.ApplySegs / kernel.Program.RunSegs invocation:
//
//   - Decode processes each intersection-score group with one segment
//     batch per (node, companion-column) pair plus one batched MDS solve;
//     for encode (every parity erased) the single group covers all alpha
//     planes, so the solve collapses to full-buffer Program.Run calls.
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
// (SetBatching(false) forces the per-plane formulation).

// batchOff disables the batched paths when set. Stored inverted so the
// zero value means "batching on".
var batchOff atomic.Bool

// Batching pays off while per-call kernel dispatch dominates the
// arithmetic; once sub-chunks grow large every per-plane call already
// streams enough bytes to amortize itself. Decode reaches parity near
// scs≈1600 on the ymm tiers and rides the wider zmm strided kernels to
// 4 KiB; zero-copy repair (no gather/scatter to degrade into memcpy)
// wins through 1 KiB sub-chunks on every measured tier, with the
// per-plane path pulling ahead from 2 KiB
// (BenchmarkKernelClayRepairSweep tracks the crossover). The gates are
// vars overridable by SetBatchLimits (identity tests push arbitrarily
// large sub-chunks through the batched paths); 0 means "derive the
// measured default".
var (
	batchMaxSubChunk       = 0
	batchRepairMaxSubChunk = 0
)

// batchDecodeLimit returns the sub-chunk size gate for batched decode.
func batchDecodeLimit() int {
	if batchMaxSubChunk != 0 {
		return batchMaxSubChunk
	}
	if gf256.StridedRunCap() >= 4096 {
		return 4096
	}
	return 2048
}

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

// SetBatchLimits overrides the sub-chunk size gates above which the
// batched paths yield to the per-plane code, returning a restore
// function; 0 restores the backend-derived defaults. Identity tests use
// it to push arbitrarily large sub-chunks through the batched
// implementations; it is not safe concurrently with Decode/Repair calls.
func SetBatchLimits(decodeMax, repairMax int) (restore func()) {
	prevD, prevR := batchMaxSubChunk, batchRepairMaxSubChunk
	batchMaxSubChunk, batchRepairMaxSubChunk = decodeMax, repairMax
	return func() { batchMaxSubChunk, batchRepairMaxSubChunk = prevD, prevR }
}

// repairScratch pools the compact-space slab for repairStrided. Pooling
// (rather than a per-call make) matters because the slab is written and
// discarded every repair: at mid-size sub-chunks the allocator's zeroing
// plus GC scan cost rivals the GF arithmetic itself. The pool is
// package-level, never hung off a code instance, so repairs racing on a
// shared registry instance each grab independent slabs.
var repairScratch = sync.Pool{New: func() any { b := []byte(nil); return &b }}

// copySegs copies the listed scs-byte segments from src to dst, coalescing
// adjacent segment indices into single copies.
func copySegs(dst, src []byte, idx []int32, scs int) {
	for i := 0; i < len(idx); {
		j := i + 1
		for j < len(idx) && idx[j] == idx[j-1]+1 {
			j++
		}
		off, end := int(idx[i])*scs, (int(idx[j-1])+1)*scs
		copy(dst[off:end], src[off:end])
		i = j
	}
}

// solveBatch runs the plane MDS reconstruction across a batch of planes in
// one program invocation per lost node: sel(u) returns node u's full
// buffer, idx lists the plane indices to solve. full indicates idx covers
// every segment of the buffers contiguously, letting the solve run as a
// plain full-width Program.Run.
func (dec *planeSolver) solveBatch(srcs, dsts [][]byte, sel func(u int) []byte, idx []int32, scs int, full bool) {
	if len(dec.lost) == 0 {
		return
	}
	for si, sv := range dec.survivors {
		srcs[si] = sel(sv)
	}
	for li, l := range dec.lost {
		dsts[li] = sel(l)
	}
	dec.progOnce.Do(func() { dec.prog = kernel.Compile(dec.rows) })
	if full {
		dec.prog.Run(srcs, dsts, true)
		return
	}
	dec.prog.RunSegs(srcs, dsts, idx, scs, true)
}

// decodeGroupBatched computes U for every node across all planes of one
// intersection-score group. Within a group the transforms only read C
// (any plane) and U of strictly lower-score planes — when a companion node
// is erased, its companion plane's score is one lower — so running every
// transform of the group before every solve preserves the per-plane data
// dependencies exactly.
func (c *Clay) decodeGroupBatched(group []int32, erased []bool, C, U [][]byte, dec *planeSolver, scs int, srcs, dsts [][]byte) {
	full := len(group) == c.alpha
	var pairBuf [2][]byte
	var deltaBuf [2]int32
	pair, delta := pairBuf[:], deltaBuf[:]

	// Per-row plane buckets by digit value; full groups use the
	// precomputed whole-space lists.
	var bucket [][]int32
	var counts []int
	var slab []int32
	if !full {
		bucket = make([][]int32, c.q)
		counts = make([]int, c.q)
		slab = make([]int32, len(group))
	}
	for y := 0; y < c.t; y++ {
		if !full {
			clear(counts)
			pw := c.pow[c.t-1-y]
			for _, z := range group {
				counts[(int(z)/pw)%c.q]++
			}
			off := 0
			for x := 0; x < c.q; x++ {
				bucket[x] = slab[off : off : off+counts[x]]
				off += counts[x]
			}
			for _, z := range group {
				x := (int(z) / pw) % c.q
				bucket[x] = append(bucket[x], z)
			}
		}
		for x := 0; x < c.q; x++ {
			u := x + y*c.q
			if erased[u] {
				continue
			}
			for xp := 0; xp < c.q; xp++ {
				idx := c.digitPlanes[y*c.q+xp]
				if !full {
					idx = bucket[xp]
				}
				if len(idx) == 0 {
					continue
				}
				if xp == x {
					copySegs(U[u], C[u], idx, scs) // unpaired vertices
					continue
				}
				comp := xp + y*c.q
				delta[0], delta[1] = 0, int32((x-xp)*c.pow[c.t-1-y])
				pair[0] = C[u]
				if !erased[comp] {
					pair[1] = C[comp]
					c.pairRow.MulSegs(pair, U[u], idx, delta, scs)
				} else {
					pair[1] = U[comp]
					c.coupleRow.MulSegs(pair, U[u], idx, delta, scs)
				}
			}
		}
	}
	dec.solveBatch(srcs, dsts, func(u int) []byte { return U[u] }, group, scs, full)
}

// convertUCBatched is the batched form of the final U -> C conversion for
// erased nodes: every plane's U is known, so each (node, companion-column)
// pair converts in one segment batch over the whole plane space.
func (c *Clay) convertUCBatched(erased []bool, C, U [][]byte, scs int) {
	var pairBuf [2][]byte
	var deltaBuf [2]int32
	pair, delta := pairBuf[:], deltaBuf[:]
	for u := 0; u < c.nt; u++ {
		if !erased[u] {
			continue
		}
		x, y := c.nodeXY(u)
		for xp := 0; xp < c.q; xp++ {
			idx := c.digitPlanes[y*c.q+xp]
			if xp == x {
				copySegs(C[u], U[u], idx, scs)
				continue
			}
			comp := xp + y*c.q
			delta[0], delta[1] = 0, int32((x-xp)*c.pow[c.t-1-y])
			pair[0], pair[1] = U[u], U[comp]
			c.coupleRow.MulSegs(pair, C[u], idx, delta, scs)
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
// plane z = a*runStride + first + i. Scratch is a pooled slab held
// exclusively for the duration of the call — nothing hangs off the code
// instance, so concurrent repairs on a shared registry instance stay
// independent.
func (c *Clay) repairStrided(shards [][]byte, failedExt int, scs int, out []byte) error {
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

	// One pooled slab: compact U per node, the step-3 scratch, and one
	// run-width zero window standing in for virtual shards (read with
	// stride 0). Every uComp byte is overwritten before it is read, so
	// only the zero window needs clearing on reuse.
	need := (c.nt+1)*bb + rl
	sp := repairScratch.Get().(*[]byte)
	if cap(*sp) < need {
		*sp = make([]byte, need)
	}
	slab := (*sp)[:need]
	defer repairScratch.Put(sp)
	clear(slab[(c.nt+1)*bb:])
	uComp := make([][]byte, c.nt)
	for u := range uComp {
		uComp[u] = slab[u*bb : (u+1)*bb]
	}
	u2 := slab[c.nt*bb : (c.nt+1)*bb]
	zeroRun := slab[(c.nt+1)*bb:]

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
	shards[failedExt] = out
	return nil
}
