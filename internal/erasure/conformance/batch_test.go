package conformance

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/erasure"
	"repro/internal/erasure/clay"
	"repro/internal/gf256"
)

// clayUnderBatch encodes data (copied to backing arrays at the given byte
// alignment) with the batched paths toggled as requested and returns the
// full shard set.
func clayUnderBatch(t testing.TB, code erasure.Code, data [][]byte, align int, batched bool) [][]byte {
	t.Helper()
	restore := clay.SetBatching(batched)
	defer restore()
	shards := alignedShards(code, data, align)
	if err := code.Encode(shards); err != nil {
		t.Fatalf("encode (batch=%v): %v", batched, err)
	}
	return shards
}

// clayBatchScan runs encode, decode, and single repair for one
// (code, scs, align, backend) point under both the batched and per-plane
// Clay paths. The two encodes must agree byte for byte, and every decode
// and repair must reproduce exactly the bytes it erased.
func clayBatchScan(t testing.TB, code erasure.Code, scs, align int, rng *rand.Rand) {
	data := make([][]byte, code.K())
	for i := range data {
		data[i] = make([]byte, code.SubChunks()*scs)
		rng.Read(data[i])
	}
	batched := clayUnderBatch(t, code, data, align, true)
	baseline := clayUnderBatch(t, code, data, align, false)
	for i := range batched {
		if !bytes.Equal(batched[i], baseline[i]) {
			t.Fatalf("scs=%d align=%d: encode shard %d differs between batched and per-plane paths", scs, align, i)
		}
	}

	// The first m shards fill grid column 0 when k >= m, so their decode
	// is one score group spanning every plane: the whole-space path beyond
	// encode.
	column := make([]int, code.N()-code.K())
	for i := range column {
		column[i] = i
	}
	losses := [][]int{{0}, column}
	if erasure.CanRecover(code, []int{1, code.K()}) {
		losses = append(losses, []int{1, code.K()})
	}
	for _, lost := range losses {
		for _, batch := range []bool{true, false} {
			restore := clay.SetBatching(batch)
			shards := alignedShards(code, baseline, align)
			for i := code.K(); i < code.N(); i++ {
				shards[i] = append([]byte(nil), baseline[i]...)
			}
			for _, f := range lost {
				shards[f] = nil
			}
			err := code.Decode(shards)
			restore()
			if err != nil {
				t.Fatalf("decode lost=%v batch=%v: %v", lost, batch, err)
			}
			for i := range shards {
				if !bytes.Equal(shards[i], baseline[i]) {
					t.Fatalf("scs=%d align=%d lost=%v batch=%v: decode shard %d differs from the erased bytes",
						scs, align, lost, batch, i)
				}
			}
		}
	}

	for _, f := range []int{0, code.K()} {
		for _, batch := range []bool{true, false} {
			restore := clay.SetBatching(batch)
			shards := alignedShards(code, baseline, align)
			for i := code.K(); i < code.N(); i++ {
				shards[i] = append([]byte(nil), baseline[i]...)
			}
			shards[f] = nil
			err := code.Repair(shards, []int{f})
			restore()
			if err != nil {
				t.Fatalf("repair %d batch=%v: %v", f, batch, err)
			}
			if !bytes.Equal(shards[f], baseline[f]) {
				t.Fatalf("scs=%d align=%d batch=%v: repair of shard %d differs from the erased bytes", scs, align, batch, f)
			}
		}
	}
}

// TestClayBatchIdentity sweeps sub-chunk sizes across 1-513 (covering the
// strided-SIMD and per-run window routes plus every tail width)
// and operand alignments 0-7 on every available gf256 backend, requiring
// the batched multi-plane Clay paths to be byte-identical to the
// per-plane baseline for encode and every decode and repair to reproduce
// the erased bytes. The repair gate is lifted so large sub-chunks exercise
// the batched code rather than the gated fallback.
func TestClayBatchIdentity(t *testing.T) {
	defer clay.SetBatchLimits(1 << 30)()
	small, err := erasure.New("clay", 4, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	big, err := erasure.New("clay", 9, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Full cross-product on the cheap shape; spot sizes per route on the
	// paper's headline shape.
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
					clayBatchScan(t, small, scs, align, rng)
				}
			}
			for _, scs := range bigSizes {
				for _, align := range []int{0, 3, 7} {
					clayBatchScan(t, big, scs, align, rng)
				}
			}
		})
		restore()
	}
}

// FuzzClayBatchIdentity fuzzes shape, sub-chunk size, alignment, and data
// seed through the batched/per-plane identity check on the current
// backend. The seed corpus pins the kernel route boundaries (one vector,
// strided window width, tail remainders).
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
		code, err := erasure.New("clay", kk, mm, kk+mm-1)
		if err != nil {
			t.Skip(err)
		}
		defer clay.SetBatchLimits(1 << 30)()
		rng := rand.New(rand.NewSource(seed))
		clayBatchScan(t, code, s, int(align)%8, rng)
	})
}

// BenchmarkClayBatchAB reports the paper's headline Clay shape at 4 KiB
// and 64 KiB with the batched paths on and off, with the bytes and
// allocations of a call: an encode allocates its three parity shards, a
// repair its one shard, and beside a few headers only the working slab
// that refills Clay's scratch pool after a GC has emptied it.
func BenchmarkClayBatchAB(b *testing.B) {
	code, err := erasure.New("clay", 9, 3, 11)
	if err != nil {
		b.Fatal(err)
	}
	for _, sizeKiB := range []int{4, 64} {
		size := sizeKiB << 10
		size = (size + code.SubChunks() - 1) / code.SubChunks() * code.SubChunks()
		data := make([][]byte, code.K())
		rng := rand.New(rand.NewSource(int64(size)))
		for i := range data {
			data[i] = make([]byte, size)
			rng.Read(data[i])
		}
		full := make([][]byte, code.N())
		for i := range data {
			full[i] = append([]byte(nil), data[i]...)
		}
		if err := code.Encode(full); err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name    string
			batched bool
		}{{"batched", true}, {"perplane", false}} {
			restore := clay.SetBatching(mode.batched)
			b.Run(fmt.Sprintf("encode/%dKiB/%s", sizeKiB, mode.name), func(b *testing.B) {
				shards := make([][]byte, code.N())
				copy(shards, full)
				for i := code.K(); i < code.N(); i++ {
					shards[i] = nil
				}
				b.SetBytes(int64(size * code.K()))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := code.Encode(shards); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("repair/%dKiB/%s", sizeKiB, mode.name), func(b *testing.B) {
				b.SetBytes(int64(size))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					shards := make([][]byte, code.N())
					copy(shards, full)
					shards[1] = nil
					if err := code.Repair(shards, []int{1}); err != nil {
						b.Fatal(err)
					}
				}
			})
			restore()
		}
	}
}

// BenchmarkKernelClayRepairSweep sweeps the single-repair sub-chunk size
// from 128 B to 8 KiB — the operating region the zero-copy strided repair
// claims, extended two size classes past its 2 KiB gate — with the
// batched and per-plane formulations at every point. Shard size is
// scs * alpha, so the sweep drives the size gate's own axis directly; the
// batched gate is lifted so both paths cover the full range and the
// crossover (if any) is visible in the numbers rather than hidden by the
// gate.
func BenchmarkKernelClayRepairSweep(b *testing.B) {
	code, err := erasure.New("clay", 9, 3, 11)
	if err != nil {
		b.Fatal(err)
	}
	for _, scs := range []int{128, 256, 512, 1024, 2048, 4096, 8192} {
		size := scs * code.SubChunks()
		rng := rand.New(rand.NewSource(int64(scs)))
		full := make([][]byte, code.N())
		for i := 0; i < code.K(); i++ {
			full[i] = make([]byte, size)
			rng.Read(full[i])
		}
		if err := code.Encode(full); err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name    string
			batched bool
		}{{"batched", true}, {"perplane", false}} {
			restoreB := clay.SetBatching(mode.batched)
			restoreL := clay.SetBatchLimits(1 << 30)
			b.Run(fmt.Sprintf("scs%dB/%s", scs, mode.name), func(b *testing.B) {
				b.SetBytes(int64(size))
				for i := 0; i < b.N; i++ {
					shards := make([][]byte, code.N())
					copy(shards, full)
					shards[1] = nil
					if err := code.Repair(shards, []int{1}); err != nil {
						b.Fatal(err)
					}
				}
			})
			restoreL()
			restoreB()
		}
	}
}
