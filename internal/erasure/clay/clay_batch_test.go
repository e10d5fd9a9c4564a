package clay

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gf256"
)

// decodeState is Decode's working set for one erasure pattern, held in
// fresh buffers at the sub-chunk width itself (no slab, no padded detour),
// so the tests and benchmarks can drive each decode formulation directly.
type decodeState struct {
	c          *Clay
	erased     []bool
	C, U       [][]byte
	dec        *planeSolver
	srcs, dsts [][]byte
	scs        int
}

// newDecodeState gives every nil shard a fresh buffer, as Decode does, and
// sets up C over the shards and a zero shard for the virtual nodes.
func newDecodeState(tb testing.TB, c *Clay, shards [][]byte) *decodeState {
	tb.Helper()
	size := 0
	for _, s := range shards {
		size = max(size, len(s))
	}
	d := &decodeState{c: c, erased: make([]bool, c.nt), C: make([][]byte, c.nt), U: make([][]byte, c.nt), scs: size / c.alpha}
	for e, s := range shards {
		if s == nil {
			d.erased[c.internalIndex(e)] = true
			shards[e] = make([]byte, size)
		}
	}
	zero := make([]byte, size)
	for u := range d.C {
		d.C[u] = zero
		if ext := c.externalIndex(u); ext != -1 {
			d.C[u] = shards[ext]
		}
		d.U[u] = make([]byte, size)
	}
	dec, err := c.planeDecoder(d.erased)
	if err != nil {
		tb.Fatal(err)
	}
	d.dec, d.srcs, d.dsts = dec, make([][]byte, len(dec.survivors)), make([][]byte, len(dec.lost))
	return d
}

// whole runs the whole-space formulation over every plane at once; it is
// only valid for a pattern whose planes all score alike.
func (d *decodeState) whole() {
	d.c.decodeWhole(d.erased, d.C, d.U, d.dec, d.scs, d.srcs, d.dsts)
}

// planes runs every plane through decodePlane in Decode's score order.
func (d *decodeState) planes() {
	byScore := make([][]int, d.c.t+1)
	for z := 0; z < d.c.alpha; z++ {
		s := d.c.intersectionScore(z, d.erased)
		byScore[s] = append(byScore[s], z)
	}
	for _, group := range byScore {
		for _, z := range group {
			d.c.decodePlane(z, d.erased, d.C, d.U, d.dec, d.scs, d.srcs, d.dsts)
		}
	}
}

// perPlaneDecode is Decode with every score group run plane by plane: the
// reference the whole-space formulation is checked against.
func perPlaneDecode(tb testing.TB, c *Clay, shards [][]byte) {
	tb.Helper()
	d := newDecodeState(tb, c, shards)
	d.planes()
	c.convertUC(d.erased, d.C, d.U, d.scs)
}

// perPlaneEncode encodes copies of the data shards plane by plane and
// returns the full shard set.
func perPlaneEncode(tb testing.TB, c *Clay, data [][]byte) [][]byte {
	tb.Helper()
	shards := make([][]byte, c.N())
	for i := range data {
		shards[i] = append([]byte(nil), data[i]...)
	}
	perPlaneDecode(tb, c, shards)
	return shards
}

// repairBy repairs shard f of a copy of orig by the strided formulation or
// the per-plane one, whatever the gate would pick, and returns the shard.
func repairBy(tb testing.TB, c *Clay, orig [][]byte, f int, strided bool) []byte {
	tb.Helper()
	work := make([][]byte, len(orig))
	copy(work, orig)
	work[f] = nil
	if err := c.repairWith(work, f, len(orig[(f+1)%len(orig)])/c.alpha, strided); err != nil {
		tb.Fatalf("repair %d (strided=%v): %v", f, strided, err)
	}
	return work[f]
}

// TestBatchedEncodeDecodeRepairIdentity checks that Encode (whole-space)
// is byte-identical to the per-plane encode, and that every decode pattern
// up to two erasures, by Decode and by the per-plane reference, and every
// single repair, by both formulations, reproduces exactly the bytes it
// erased (the data shards are the input data), across shapes and
// sub-chunk sizes covering the strided and per-run kernel routes and both
// sides of the repair gate.
func TestBatchedEncodeDecodeRepairIdentity(t *testing.T) {
	shapes := []struct{ k, m int }{{4, 2}, {9, 3}, {6, 2}, {2, 2}}
	for _, sh := range shapes {
		c, err := New(sh.k, sh.m, sh.k+sh.m-1)
		if err != nil {
			t.Fatal(err)
		}
		for _, scs := range []int{1, 3, 8, 32, 51, 200, 2051} {
			if scs > 200 && c.alpha > 8 {
				continue // the large size on the small grids only
			}
			data := make([][]byte, c.K())
			rng := rand.New(rand.NewSource(int64(sh.k*1000 + scs)))
			for i := range data {
				data[i] = make([]byte, c.SubChunks()*scs)
				rng.Read(data[i])
			}
			baseline := perPlaneEncode(t, c, data)
			batched := make([][]byte, c.N())
			copy(batched, data)
			if err := c.Encode(batched); err != nil {
				t.Fatal(err)
			}
			for i := range batched {
				if !bytes.Equal(batched[i], baseline[i]) {
					t.Fatalf("k=%d m=%d scs=%d: encode shard %d diverges from per-plane path",
						sh.k, sh.m, scs, i)
				}
				if i < c.K() && !bytes.Equal(baseline[i], data[i]) {
					t.Fatalf("k=%d m=%d scs=%d: encode changed data shard %d", sh.k, sh.m, scs, i)
				}
			}

			// Every single- and double-erasure decode.
			for a := 0; a < c.N(); a++ {
				for b := a; b < c.N(); b++ {
					for _, product := range []bool{true, false} {
						work := cloneShards(baseline)
						work[a], work[b] = nil, nil
						if product {
							if err := c.Decode(work); err != nil {
								t.Fatal(err)
							}
						} else {
							perPlaneDecode(t, c, work)
						}
						for i := range work {
							if !bytes.Equal(work[i], baseline[i]) {
								t.Fatalf("k=%d m=%d scs=%d erase(%d,%d) Decode=%v: decode shard %d wrong",
									sh.k, sh.m, scs, a, b, product, i)
							}
						}
					}
				}
			}

			// Every single repair.
			for f := 0; f < c.N(); f++ {
				for _, strided := range []bool{true, false} {
					if !bytes.Equal(repairBy(t, c, baseline, f, strided), baseline[f]) {
						t.Fatalf("k=%d m=%d scs=%d strided=%v: repair of shard %d wrong",
							sh.k, sh.m, scs, strided, f)
					}
				}
			}
		}
	}
}

// alignedShards copies the data shards into fresh backing arrays at the
// given byte offset so kernel head/tail fixups see misaligned operands,
// and leaves the parity slots nil.
func alignedShards(c *Clay, data [][]byte, align int) [][]byte {
	shards := make([][]byte, c.N())
	for i, d := range data {
		backing := make([]byte, len(d)+8)
		copy(backing[align:], d)
		shards[i] = backing[align : align+len(d)]
	}
	return shards
}

// formulationScan runs encode, decode and single repair for one
// (code, scs, align, backend) point by both formulations: Encode against
// the per-plane encode, byte for byte; Decode and the per-plane decode of
// one shard, of grid column 0 (one score group spanning every plane when
// k >= m, the whole-space path beyond encode) and of a data and a parity
// shard; and both repair formulations of a data and a parity shard. Every
// decode and repair must reproduce exactly the bytes it erased.
func formulationScan(tb testing.TB, c *Clay, scs, align int, rng *rand.Rand) {
	data := make([][]byte, c.K())
	for i := range data {
		data[i] = make([]byte, c.SubChunks()*scs)
		rng.Read(data[i])
	}
	baseline := perPlaneEncode(tb, c, data)
	batched := alignedShards(c, data, align)
	if err := c.Encode(batched); err != nil {
		tb.Fatalf("encode: %v", err)
	}
	for i := range batched {
		if !bytes.Equal(batched[i], baseline[i]) {
			tb.Fatalf("scs=%d align=%d: encode shard %d differs between whole-space and per-plane paths", scs, align, i)
		}
	}

	// aligned copies baseline at the scan's alignment, parity included.
	aligned := func() [][]byte {
		shards := alignedShards(c, baseline, align)
		for i := c.K(); i < c.N(); i++ {
			shards[i] = append([]byte(nil), baseline[i]...)
		}
		return shards
	}
	column := make([]int, c.m)
	for i := range column {
		column[i] = i
	}
	for _, lost := range [][]int{{0}, column, {1, c.K()}} {
		for _, product := range []bool{true, false} {
			shards := aligned()
			for _, f := range lost {
				shards[f] = nil
			}
			if product {
				if err := c.Decode(shards); err != nil {
					tb.Fatalf("decode lost=%v: %v", lost, err)
				}
			} else {
				perPlaneDecode(tb, c, shards)
			}
			for i := range shards {
				if !bytes.Equal(shards[i], baseline[i]) {
					tb.Fatalf("scs=%d align=%d lost=%v Decode=%v: decode shard %d differs from the erased bytes",
						scs, align, lost, product, i)
				}
			}
		}
	}

	for _, f := range []int{0, c.K()} {
		for _, strided := range []bool{true, false} {
			if !bytes.Equal(repairBy(tb, c, aligned(), f, strided), baseline[f]) {
				tb.Fatalf("scs=%d align=%d strided=%v: repair of shard %d differs from the erased bytes", scs, align, strided, f)
			}
		}
	}
}

// TestClayBatchIdentity sweeps sub-chunk sizes across 1-513 (covering the
// strided-SIMD and per-run window routes plus every tail width) and
// operand alignments 0-7 on every available gf256 backend, and one size
// past the repair gate, requiring each pair of formulations to agree and
// to reproduce the erased bytes.
func TestClayBatchIdentity(t *testing.T) {
	small, err := New(4, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	big, err := New(9, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Full cross-product on the cheap shape, plus one odd size past the
	// repair gate; spot sizes per route on the paper's headline shape.
	smallSizes := []int{1, 2, 3, 7, 8, 9, 31, 32, 33, 63, 65, 127, 128, 129, 255, 257, 511, 512, 513}
	bigSizes := []int{1, 33, 129, 513}
	for _, backend := range gf256.Backends() {
		restore, err := gf256.SetBackend(backend)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(backend, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(backend))))
			for _, scs := range smallSizes {
				for align := 0; align < 8; align++ {
					formulationScan(t, small, scs, align, rng)
				}
			}
			for _, scs := range bigSizes {
				for _, align := range []int{0, 3, 7} {
					formulationScan(t, big, scs, align, rng)
				}
			}
			formulationScan(t, small, 2051, 5, rng)
		})
		restore()
	}
}

// FuzzClayBatchIdentity fuzzes shape, sub-chunk size, alignment, and data
// seed through formulationScan on the current backend. The seed corpus
// pins the kernel route boundaries (one vector, strided window width,
// tail remainders). Each input builds a new code while the scratch pool is
// package-level, so slabs pass between shapes and sizes dirty.
func FuzzClayBatchIdentity(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint16(1), uint8(0), int64(1))
	f.Add(uint8(4), uint8(2), uint16(31), uint8(3), int64(2))
	f.Add(uint8(6), uint8(3), uint16(32), uint8(7), int64(3))
	f.Add(uint8(9), uint8(3), uint16(51), uint8(1), int64(4))
	f.Add(uint8(5), uint8(2), uint16(513), uint8(5), int64(5))
	f.Fuzz(func(t *testing.T, k, m uint8, scs uint16, align uint8, seed int64) {
		kk := 2 + int(k)%8
		mm := 2 + int(m)%2
		s := 1 + int(scs)%513
		c, err := New(kk, mm, kk+mm-1)
		if err != nil {
			t.Skip(err)
		}
		formulationScan(t, c, s, int(align)%8, rand.New(rand.NewSource(seed)))
	})
}

// formulationSizes are the sub-chunk sizes the formulation benchmarks
// sweep: 128 B to 8 KiB in powers of two around the repair gate, plus the
// clay(12,9,11) sub-chunks of codec_stripe's 4 KiB, 64 KiB, 1 MiB and
// 8 MiB shards.
var formulationSizes = []int{56, 128, 256, 512, 816, 1024, 2048, 4096, 8192, 12952, 103568}

// benchStripe is a clay(12,9,11) stripe of seeded data at sub-chunk scs.
func benchStripe(b *testing.B, scs int) (*Clay, [][]byte) {
	c, err := New(9, 3, 11)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(scs)))
	data := make([][]byte, c.K())
	for i := range data {
		data[i] = make([]byte, scs*c.alpha)
		rng.Read(data[i])
	}
	return c, perPlaneEncode(b, c, data)
}

// BenchmarkRepairFormulations times single repair of a data shard by each
// formulation at every sweep size, both sides of stridedRepairMax
// included, with the bytes and allocations of a call. SetBytes is the
// repaired shard.
func BenchmarkRepairFormulations(b *testing.B) {
	for _, scs := range formulationSizes {
		c, full := benchStripe(b, scs)
		for _, mode := range []struct {
			name    string
			strided bool
		}{{"strided", true}, {"perplane", false}} {
			b.Run(fmt.Sprintf("scs%dB/%s", scs, mode.name), func(b *testing.B) {
				b.SetBytes(int64(scs * c.alpha))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					repairBy(b, c, full, 1, mode.strided)
				}
			})
		}
	}
}

// BenchmarkDecodeFormulations times the U planes of an encode, a score
// group spanning every plane, by decodeWhole and by decodePlane over every
// plane, on buffers set up once. SetBytes is the data encoded.
func BenchmarkDecodeFormulations(b *testing.B) {
	for _, scs := range formulationSizes {
		c, full := benchStripe(b, scs)
		shards := make([][]byte, c.N())
		copy(shards, full[:c.K()])
		d := newDecodeState(b, c, shards)
		for _, mode := range []struct {
			name string
			run  func()
		}{{"whole", d.whole}, {"perplane", d.planes}} {
			b.Run(fmt.Sprintf("scs%dB/%s", scs, mode.name), func(b *testing.B) {
				b.SetBytes(int64(scs * c.alpha * c.K()))
				for i := 0; i < b.N; i++ {
					mode.run()
				}
			})
		}
	}
}
