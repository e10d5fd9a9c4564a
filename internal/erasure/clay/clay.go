// Package clay implements the Clay (coupled-layer) code of Vajha et al.
// (FAST '18), the minimum-storage-regenerating construction shipped as
// Ceph's "clay" erasure-code plugin.
//
// A Clay(n=k+m, k, d) code with d = n-1 arranges the n chunks on a q x t
// grid (q = m, t = n/q) and divides every chunk into alpha = q^t
// sub-chunks, one per "plane" z in [q]^t. Coupled symbols C (what is
// stored) relate to uncoupled symbols U through an invertible pairwise
// transform; within every plane the uncoupled symbols form a codeword of an
// [nt, nt-q] MDS code. Single-chunk repair touches only the beta = alpha/q
// planes that intersect the failed chunk, reading beta sub-chunks from each
// of the d = n-1 helpers: repair traffic (n-1)/q chunks instead of
// Reed-Solomon's k chunks.
//
// When q does not divide n the code is shortened: virtual all-zero data
// chunks pad the grid, exactly as Ceph does.
//
// Multiple erasures fall back to a full decode that reads every sub-chunk
// of the surviving chunks and recovers planes in increasing
// intersection-score order, also matching the Ceph plugin's behaviour.
package clay

import (
	"fmt"
	"sync"

	"repro/internal/erasure"
	"repro/internal/erasure/kernel"
	"repro/internal/gf256"
	"repro/internal/gfmat"
)

// gamma is the coupling coefficient of the pairwise transforms. Any value
// outside {0, 1} yields an invertible transform; 2 matches the generator
// of the field.
const gamma byte = 2

// Clay is a Clay code instance. The construction (base generator,
// coupling transforms, plane geometry) is immutable after New; plane
// solvers and repair plans are derived artifacts held in concurrency-safe
// singleflight caches, so one instance is safe to share across goroutines
// and snapshot forks.
type Clay struct {
	k, m  int
	q, t  int
	nt    int   // q*t internal grid nodes (>= n, extras are virtual zeros)
	kInt  int   // nt - q internal data nodes
	alpha int   // q^t sub-chunks per chunk
	beta  int   // alpha / q sub-chunks read per helper on single repair
	pow   []int // pow[i] = q^i, i in [0, t]

	base *gfmat.Matrix // nt x kInt MDS generator for the uncoupled planes

	// The pairwise coupling transforms, compiled once into two-source row
	// kernels (both inputs stream through the word-wide gf256 kernel
	// instead of per-byte table lookups):
	//
	//	pairRow:     U1 = C1/(1+gamma^2) + gamma*C2/(1+gamma^2)
	//	coupleRow:   C1 = U1 + gamma*U2
	//	uncoupleRow: U2 = C1/gamma + U1/gamma
	pairRow, coupleRow, uncoupleRow *gf256.RowPlan

	decodeLRU *kernel.LRU[kernel.Mask, *planeSolver]  // erased-node mask -> compiled plane solver
	plans     *kernel.LRU[kernel.Mask, *erasure.Plan] // failed mask -> repair plan
}

// New constructs a Clay(k+m, k, d) code. Only the repair-optimal
// configuration d = k+m-1 is supported (Ceph's default); other values
// return an error.
func New(k, m, d int) (*Clay, error) {
	if k <= 0 || m <= 1 {
		return nil, fmt.Errorf("clay: require k >= 1 and m >= 2 (k=%d m=%d)", k, m)
	}
	if d != k+m-1 {
		return nil, fmt.Errorf("clay: only d = k+m-1 is supported (k=%d m=%d d=%d)", k, m, d)
	}
	q := d - k + 1 // == m
	n := k + m
	t := (n + q - 1) / q
	nt := q * t
	alpha := 1
	for i := 0; i < t; i++ {
		alpha *= q
		if alpha > 1<<20 {
			return nil, fmt.Errorf("clay: sub-packetization q^t = %d^%d too large", q, t)
		}
	}
	pow := make([]int, t+1)
	pow[0] = 1
	for i := 1; i <= t; i++ {
		pow[i] = pow[i-1] * q
	}
	if nt > 256 {
		return nil, fmt.Errorf("clay: internal width %d exceeds GF(2^8) limit", nt)
	}
	invG2 := gf256.Inv(gf256.Mul(gamma, gamma) ^ 1)
	invG := gf256.Inv(gamma)
	return &Clay{
		k: k, m: m,
		q: q, t: t, nt: nt, kInt: nt - q,
		alpha: alpha, beta: alpha / q,
		pow:         pow,
		base:        gfmat.Cauchy(nt, nt-q),
		pairRow:     gf256.CompileRow([]byte{invG2, gf256.Mul(invG2, gamma)}),
		coupleRow:   gf256.CompileRow([]byte{1, gamma}),
		uncoupleRow: gf256.CompileRow([]byte{invG, invG}),
		decodeLRU:   kernel.NewLRU[kernel.Mask, *planeSolver](kernel.DecodeCacheSize),
		plans:       kernel.NewLRU[kernel.Mask, *erasure.Plan](kernel.DecodeCacheSize),
	}, nil
}

func init() {
	erasure.Register("clay", func(k, m, d int) (erasure.Code, error) {
		return New(k, m, d)
	}, func(k, m int) int { return k + m - 1 })
}

// Name implements erasure.Code.
func (c *Clay) Name() string { return "clay" }

// K implements erasure.Code.
func (c *Clay) K() int { return c.k }

// M implements erasure.Code.
func (c *Clay) M() int { return c.m }

// N implements erasure.Code.
func (c *Clay) N() int { return c.k + c.m }

// SubChunks implements erasure.Code.
func (c *Clay) SubChunks() int { return c.alpha }

// Beta is the number of sub-chunks read from each helper during
// single-chunk repair (alpha / q).
func (c *Clay) Beta() int { return c.beta }

// internalIndex maps an external shard index (0..n-1, data first then
// parity) to the internal grid index. Virtual zero-data nodes occupy
// internal indices k..kInt-1; parity shards occupy kInt..nt-1.
func (c *Clay) internalIndex(ext int) int {
	if ext < c.k {
		return ext
	}
	return c.kInt + (ext - c.k)
}

// externalIndex is the inverse of internalIndex; virtual nodes return -1.
func (c *Clay) externalIndex(internal int) int {
	if internal < c.k {
		return internal
	}
	if internal < c.kInt {
		return -1
	}
	return c.k + (internal - c.kInt)
}

// nodeXY decomposes an internal node index into grid coordinates.
func (c *Clay) nodeXY(u int) (x, y int) { return u % c.q, u / c.q }

// digit returns coordinate y of plane z.
func (c *Clay) digit(z, y int) int { return (z / c.pow[c.t-1-y]) % c.q }

// setDigit returns plane z with coordinate y replaced by v.
func (c *Clay) setDigit(z, y, v int) int {
	old := c.digit(z, y)
	return z + (v-old)*c.pow[c.t-1-y]
}

// workWidth is the sub-chunk slot width decode and repair work in. An odd
// sub-chunk size leaves every plane slice at an unaligned offset, forcing
// the word kernels onto their byte fallback for the whole call; so on
// those backends the call works on copies whose sub-chunks sit in
// 8-byte-padded slots (word kernels throughout) and strips the padding
// from what it recovers. GF arithmetic is elementwise, so the real bytes
// are identical either way, and the two extra memmoves are far cheaper
// than byte-path transforms over every plane. The SIMD tiers load
// unaligned: for them the copies would be pure overhead at every size.
func workWidth(scs int) int {
	if scs&7 == 0 || gf256.Vectorized() {
		return scs
	}
	return (scs + 7) &^ 7
}

// padCopy lays src's sub-chunks of scs bytes out in scsPad-byte slots of
// dst, so every sub-chunk starts on an 8-byte boundary of dst's (aligned)
// backing array. unpadCopy is the inverse.
func padCopy(dst, src []byte, scs, scsPad int) {
	for off, poff := 0, 0; off < len(src); off, poff = off+scs, poff+scsPad {
		copy(dst[poff:poff+scs], src[off:off+scs])
	}
}

func unpadCopy(dst, src []byte, scs, scsPad int) {
	for off, poff := 0, 0; off < len(dst); off, poff = off+scs, poff+scsPad {
		copy(dst[off:off+scs], src[poff:poff+scs])
	}
}

// mulPair applies a compiled two-source transform: dst = plan(a, b). The
// scratch pair slice avoids a per-call header allocation on the plane hot
// loops.
func mulPair(plan *gf256.RowPlan, pair [][]byte, a, b, dst []byte) {
	pair[0], pair[1] = a, b
	plan.Mul(pair, dst)
}

// Encode implements erasure.Code. Encoding is performed as a decode with
// the m parity chunks treated as erasures, the same strategy the Ceph
// plugin uses.
func (c *Clay) Encode(shards [][]byte) error {
	if _, err := erasure.CheckDataShards(shards, c.k, c.N(), c.alpha); err != nil {
		return err
	}
	for i := c.k; i < len(shards); i++ {
		shards[i] = nil
	}
	return c.Decode(shards)
}

// Decode implements erasure.Code: full decode of up to m missing shards by
// processing planes in increasing intersection-score order.
func (c *Clay) Decode(shards [][]byte) error {
	size, err := erasure.CheckShards(shards, c.N(), c.alpha)
	if err != nil {
		return err
	}
	var missingExt []int
	for i, s := range shards {
		if s == nil {
			missingExt = append(missingExt, i)
		}
	}
	if len(missingExt) == 0 {
		return nil
	}
	if len(missingExt) > c.m {
		return fmt.Errorf("%w: %d lost, max %d", erasure.ErrTooManyErasures, len(missingExt), c.m)
	}
	// The recovered shards are the caller's; every other buffer is carved
	// from one pooled slab.
	erased := make([]bool, c.nt)
	for _, e := range missingExt {
		erased[c.internalIndex(e)] = true
		shards[e] = make([]byte, size)
	}
	scs := size / c.alpha
	w := workWidth(scs)
	nodes := c.nt // U
	if c.nt > c.N() {
		nodes++ // the zero window
	}
	if w != scs {
		nodes += c.N() // padded copies
	}
	s := getSlab(nodes * line(w*c.alpha))
	defer s.release()

	// C holds coupled symbols per internal node: virtual nodes read the
	// zero window; real nodes alias the shard buffers, or their padded
	// copies on the detour (the erased ones are written, never read).
	C := make([][]byte, c.nt)
	var zero []byte
	if c.nt > c.N() {
		zero = s.zeros(w * c.alpha)
	}
	for u := 0; u < c.nt; u++ {
		switch ext := c.externalIndex(u); {
		case ext == -1:
			C[u] = zero
		case w == scs:
			C[u] = shards[ext]
		default:
			C[u] = s.take(w * c.alpha)
			if !erased[u] {
				padCopy(C[u], shards[ext], scs, w)
			}
		}
	}
	// U for every node and plane; filled as planes are processed.
	U := make([][]byte, c.nt)
	for u := range U {
		U[u] = s.take(w * c.alpha)
	}

	// Group planes by intersection score.
	byScore := make([][]int, c.t+1)
	for z := 0; z < c.alpha; z++ {
		s := c.intersectionScore(z, erased)
		byScore[s] = append(byScore[s], z)
	}

	dec, err := c.planeDecoder(erased)
	if err != nil {
		return err
	}

	srcs := make([][]byte, len(dec.survivors))
	dsts := make([][]byte, len(dec.lost))
	for _, group := range byScore {
		if len(group) == c.alpha {
			c.decodeWhole(erased, C, U, dec, w, srcs, dsts)
			continue
		}
		for _, z := range group {
			c.decodePlane(z, erased, C, U, dec, w, srcs, dsts)
		}
	}

	// All U known everywhere; convert U -> C for the erased nodes.
	c.convertUC(erased, C, U, w)
	if w != scs {
		for _, e := range missingExt {
			unpadCopy(shards[e], C[c.internalIndex(e)], scs, w)
		}
	}
	return nil
}

// intersectionScore counts erased nodes (x,y) whose grid column intersects
// plane z, i.e. z_y == x.
func (c *Clay) intersectionScore(z int, erased []bool) int {
	s := 0
	for u := 0; u < c.nt; u++ {
		if !erased[u] {
			continue
		}
		x, y := c.nodeXY(u)
		if c.digit(z, y) == x {
			s++
		}
	}
	return s
}

// planeDecoder returns the compiled solver recovering a plane's erased
// uncoupled symbols from its first kInt survivors, memoized per erasure
// set in the bounded LRU (the whole compiled solver is cached, where the
// old map kept only the inverse and rebuilt the reconstruction rows on
// every call).
func (c *Clay) planeDecoder(erased []bool) (*planeSolver, error) {
	return c.decodeLRU.GetOrCompute(kernel.MaskOfBools(erased), func() (*planeSolver, error) {
		survivors := make([]int, 0, c.kInt)
		var lost []int
		for u := 0; u < c.nt; u++ {
			if erased[u] {
				lost = append(lost, u)
			} else if len(survivors) < c.kInt {
				survivors = append(survivors, u)
			}
		}
		sub := c.base.SubMatrix(survivors)
		inv, err := sub.Invert()
		if err != nil {
			return nil, fmt.Errorf("clay: plane decode matrix: %w", err)
		}
		// rows[i] = generator row of lost node i times inv: maps survivor
		// symbols directly to the lost symbol.
		rows := make([][]byte, len(lost))
		for i, l := range lost {
			rows[i] = c.base.SubMatrix([]int{l}).Mul(inv).Row(0)
		}
		return &planeSolver{survivors: survivors, lost: lost, rows: rows}, nil
	})
}

// planeSolver recovers erased uncoupled symbols from the first kInt
// surviving symbols of the same plane. Only the inverted reconstruction
// rows are built eagerly (that is the expensive, always-needed part); the
// kernel.Program (decode, per-plane repair) and the row plans
// (repairStrided) are each compiled on first use.
type planeSolver struct {
	survivors []int    // kInt surviving node indices used as inputs
	lost      []int    // erased node indices
	rows      [][]byte // reconstruction rows, survivor symbols -> lost symbol

	planOnce sync.Once
	plans    []*gf256.RowPlan // per-lost-symbol rows for repairStrided

	progOnce sync.Once
	prog     *kernel.Program
}

// solve runs the MDS reconstruction as one Program.Run: for each lost
// node, sel(lost node) is overwritten with the combination of the
// survivors' sel slices. sel returns one plane's sub-chunk (per-plane
// decode and repair) or a node's whole buffer (decodeWhole: the arithmetic
// is elementwise, so one call solves every plane). srcs/dsts are
// caller scratch of lengths len(survivors) and len(lost).
func (dec *planeSolver) solve(srcs, dsts [][]byte, sel func(u int) []byte) {
	for si, sv := range dec.survivors {
		srcs[si] = sel(sv)
	}
	for li, l := range dec.lost {
		dsts[li] = sel(l)
	}
	dec.progOnce.Do(func() { dec.prog = kernel.Compile(dec.rows) })
	dec.prog.Run(srcs, dsts, true)
}

// rowPlans returns the compiled per-lost-symbol row kernels, building them
// on first use.
func (dec *planeSolver) rowPlans() []*gf256.RowPlan {
	dec.planOnce.Do(func() {
		dec.plans = make([]*gf256.RowPlan, len(dec.rows))
		for i, row := range dec.rows {
			dec.plans[i] = gf256.CompileRow(row)
		}
	})
	return dec.plans
}

// decodePlane computes U for every node in plane z. Survivor U values come
// from the pairwise reverse transform (using companion C from this plane,
// or companion U from an already-processed lower-score plane when the
// companion node is erased); erased U values come from the per-plane MDS
// solve.
func (c *Clay) decodePlane(z int, erased []bool, C, U [][]byte, dec *planeSolver, scs int, srcs, dsts [][]byte) {
	off := z * scs
	var pairBuf [2][]byte
	pair := pairBuf[:]
	for u := 0; u < c.nt; u++ {
		if erased[u] {
			continue
		}
		x, y := c.nodeXY(u)
		zy := c.digit(z, y)
		dst := U[u][off : off+scs]
		if zy == x {
			copy(dst, C[u][off:off+scs]) // unpaired vertex
			continue
		}
		comp := zy + y*c.q // companion node (z_y, y)
		zc := c.setDigit(z, y, x)
		co := zc * scs
		if !erased[comp] {
			// Both coupled symbols are available.
			mulPair(c.pairRow, pair, C[u][off:off+scs], C[comp][co:co+scs], dst)
		} else {
			// Companion plane has score-1 and is already solved:
			// U1 = C1 + gamma * U2.
			mulPair(c.coupleRow, pair, C[u][off:off+scs], U[comp][co:co+scs], dst)
		}
	}
	// Solve for erased U values from the plane's MDS codeword.
	dec.solve(srcs, dsts, func(u int) []byte { return U[u][off : off+scs] })
}

// repairPlanes returns the plane indices intersecting internal node u0.
func (c *Clay) repairPlanes(u0 int) []int {
	x0, y0 := c.nodeXY(u0)
	planes := make([]int, 0, c.beta)
	for z := 0; z < c.alpha; z++ {
		if c.digit(z, y0) == x0 {
			planes = append(planes, z)
		}
	}
	return planes
}

// RepairPlan implements erasure.Code. A single failure uses the
// repair-optimal plan (beta sub-chunks from each of the d = n-1 helpers);
// multiple failures fall back to reading all sub-chunks from every
// survivor, as the Ceph plugin does. Plans are pure functions of the
// immutable construction, so they are memoized per failed set — keyed by
// its bitmask, so permutations and duplicates share one entry whose
// Failed order is the first builder's — and shared by every caller,
// concurrent cells and snapshot forks included; callers must not mutate
// them.
func (c *Clay) RepairPlan(failed []int) (*erasure.Plan, error) {
	build := func() (*erasure.Plan, error) { return c.buildRepairPlan(failed) }
	for _, f := range failed {
		if f < 0 || f >= c.N() {
			return build() // reports the index; a mask would panic on it
		}
	}
	return c.plans.GetOrCompute(kernel.MaskOf(failed...), build)
}

func (c *Clay) buildRepairPlan(failed []int) (*erasure.Plan, error) {
	if len(failed) == 0 {
		return &erasure.Plan{SubChunkTotal: c.alpha}, nil
	}
	if len(failed) > c.m {
		return nil, fmt.Errorf("%w: %d lost, max %d", erasure.ErrTooManyErasures, len(failed), c.m)
	}
	lost := map[int]bool{}
	for _, f := range failed {
		if f < 0 || f >= c.N() {
			return nil, fmt.Errorf("clay: invalid shard index %d", f)
		}
		lost[f] = true
	}
	plan := &erasure.Plan{Failed: append([]int(nil), failed...), SubChunkTotal: c.alpha}
	if len(failed) == 1 {
		planes := c.repairPlanes(c.internalIndex(failed[0]))
		for i := 0; i < c.N(); i++ {
			if lost[i] {
				continue
			}
			plan.Helpers = append(plan.Helpers, erasure.NewHelperRead(i, planes))
		}
		return plan, nil
	}
	all := make([]int, c.alpha)
	for i := range all {
		all[i] = i
	}
	for i := 0; i < c.N(); i++ {
		if lost[i] {
			continue
		}
		plan.Helpers = append(plan.Helpers, erasure.NewHelperRead(i, all))
	}
	return plan, nil
}

// Repair implements erasure.Code. Single failures use the plane-repair
// algorithm and provably touch only the planned sub-chunks; multiple
// failures delegate to Decode.
func (c *Clay) Repair(shards [][]byte, failed []int) error {
	if len(failed) == 0 {
		return nil
	}
	if len(failed) > 1 {
		work := make([][]byte, len(shards))
		copy(work, shards)
		for _, f := range failed {
			if f < 0 || f >= len(work) {
				return fmt.Errorf("clay: invalid shard index %d", f)
			}
			work[f] = nil
		}
		if err := c.Decode(work); err != nil {
			return err
		}
		for _, f := range failed {
			shards[f] = work[f]
		}
		return nil
	}
	return c.repairSingle(shards, failed[0])
}

// repairSingle reconstructs one failed shard reading only the beta repair
// planes from each survivor.
func (c *Clay) repairSingle(shards [][]byte, failedExt int) error {
	if len(shards) != c.N() {
		return fmt.Errorf("%w: got %d, want %d", erasure.ErrShardCount, len(shards), c.N())
	}
	if failedExt < 0 || failedExt >= c.N() {
		return fmt.Errorf("clay: invalid shard index %d", failedExt)
	}
	size := -1
	for i, s := range shards {
		if i == failedExt {
			continue
		}
		if s == nil {
			return fmt.Errorf("clay: helper shard %d is nil", i)
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return fmt.Errorf("%w: shard %d has %d bytes, want %d", erasure.ErrShardSize, i, len(s), size)
		}
	}
	if size%c.alpha != 0 {
		return fmt.Errorf("%w: shard size %d not divisible by alpha=%d", erasure.ErrShardSize, size, c.alpha)
	}
	scs := size / c.alpha
	return c.repairWith(shards, failedExt, scs, workWidth(scs) < stridedRepairMax)
}

// repairWith is single repair by repairStrided when strided is set and by
// repairPerPlane otherwise; repairSingle's gate is its one product caller.
func (c *Clay) repairWith(shards [][]byte, failedExt, scs int, strided bool) error {
	out := make([]byte, scs*c.alpha)
	w := workWidth(scs)
	need := c.repairNeed(c.internalIndex(failedExt), w, strided)
	if w != scs {
		need += c.N() * line(w*c.alpha) // padded helpers and output
	}
	s := getSlab(need)
	defer s.release()
	work, dst := shards, out
	if w != scs {
		work = make([][]byte, len(shards))
		for i, sh := range shards {
			if i != failedExt {
				work[i] = s.take(w * c.alpha)
				padCopy(work[i], sh, scs, w)
			}
		}
		dst = s.take(w * c.alpha)
	}
	repair := c.repairPerPlane
	if strided {
		repair = c.repairStrided
	}
	if err := repair(work, failedExt, w, dst, &s); err != nil {
		return err
	}
	if w != scs {
		unpadCopy(out, dst, scs, w)
	}
	shards[failedExt] = out
	return nil
}

// repairNeed is the slab a single repair of internal node u0 carves: U of
// every node plus one coupling temporary, per repair plane on the
// per-plane path or across all beta of them on the strided one, and the
// zero window when the code is shortened.
func (c *Clay) repairNeed(u0, scs int, strided bool) int {
	node, window := scs, scs
	if strided {
		_, y0 := c.nodeXY(u0)
		node, window = c.beta*scs, c.pow[c.t-1-y0]*scs
	}
	if c.nt == c.N() {
		window = 0
	}
	return (c.nt+1)*line(node) + line(window)
}

// repairPerPlane is single repair one repair plane at a time, for work
// widths from stridedRepairMax up; it writes every sub-chunk of out.
func (c *Clay) repairPerPlane(shards [][]byte, failedExt, scs int, out []byte, s *slab) error {
	u0 := c.internalIndex(failedExt)
	x0, y0 := c.nodeXY(u0)
	planes := c.repairPlanes(u0)

	erased := make([]bool, c.nt)
	// In the repair formulation the whole failed column y0 is "unknown" in
	// U-space within each repair plane.
	for x := 0; x < c.q; x++ {
		erased[x+y0*c.q] = true
	}
	dec, err := c.planeDecoder(erased)
	if err != nil {
		return err
	}

	uPlane := make([][]byte, c.nt) // U values within the current plane
	for u := range uPlane {
		uPlane[u] = s.take(scs)
	}
	u2 := s.take(scs)
	// C access: virtual nodes read the zero window; the failed node must
	// never be read.
	var zero []byte
	if c.nt > c.N() {
		zero = s.zeros(scs)
	}
	readC := func(u, z int) []byte {
		ext := c.externalIndex(u)
		if ext == -1 {
			return zero
		}
		if ext == failedExt {
			panic("clay: repair read from failed shard")
		}
		return shards[ext][z*scs : (z+1)*scs]
	}
	srcs := make([][]byte, len(dec.survivors))
	dsts := make([][]byte, len(dec.lost))
	var pairBuf [2][]byte
	pair := pairBuf[:]

	for _, z := range planes {
		// Step 1: U for all nodes outside column y0.
		for u := 0; u < c.nt; u++ {
			x, y := c.nodeXY(u)
			if y == y0 {
				continue
			}
			zy := c.digit(z, y)
			if zy == x {
				copy(uPlane[u], readC(u, z))
				continue
			}
			comp := zy + y*c.q
			zc := c.setDigit(z, y, x)
			mulPair(c.pairRow, pair, readC(u, z), readC(comp, zc), uPlane[u])
		}
		// Step 2: MDS-solve the q unknowns of column y0.
		dec.solve(srcs, dsts, func(u int) []byte { return uPlane[u] })
		// Step 3: the failed node's sub-chunk in this plane is unpaired:
		// C = U.
		copy(out[z*scs:(z+1)*scs], uPlane[u0])
		// Step 4: recover the failed node's sub-chunks in the companion
		// (non-repair) planes via the coupling relations with column-y0
		// survivors.
		for x := 0; x < c.q; x++ {
			if x == x0 {
				continue
			}
			us := x + y0*c.q // surviving node (x, y0)
			w := c.setDigit(z, y0, x)
			// U2 = U(x0,y0,w) = (C(x,y0,z) - U(x,y0,z)) / gamma
			mulPair(c.uncoupleRow, pair, readC(us, z), uPlane[us], u2)
			// C(x0,y0,w) = U(x0,y0,w) + gamma * U(x,y0,z)
			mulPair(c.coupleRow, pair, u2, uPlane[us], out[w*scs:(w+1)*scs])
		}
	}
	return nil
}
