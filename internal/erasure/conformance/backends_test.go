package conformance

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/erasure"
	"repro/internal/erasure/codecache"
	"repro/internal/gf256"
)

// backendGeometries covers every plugin family at a shape small enough to
// sweep sizes and alignments quickly: classic RS, Cauchy RS, the ISA-L
// table variant, Clay (sub-packetized, pairwise-coupled), LRC, and SHEC.
var backendGeometries = []struct {
	plugin  string
	k, m, d int
}{
	{"jerasure_reed_sol_van", 9, 3, 0},
	{"jerasure_cauchy_orig", 4, 2, 0},
	{"isa_reed_sol_van", 6, 3, 0},
	{"clay", 4, 2, 5},
	{"lrc", 8, 2, 2},
	{"shec", 6, 4, 2},
}

// backendSizes returns shard sizes to sweep for a code: always multiples
// of alpha, chosen so sub-chunk sizes hit 1 byte, an odd width (exercising
// Clay's padding detour and the sub-vector tails of the SIMD kernels), a
// sub-word remainder, and a vector-friendly power of two.
func backendSizes(code erasure.Code) []int {
	alpha := code.SubChunks()
	sizes := []int{alpha * 1, alpha * 51, alpha * 512}
	if alpha == 1 {
		sizes = append(sizes, 4096+5)
	}
	return sizes
}

// alignedShards copies the data shards into fresh backing arrays at the
// given byte offset so kernel head/tail fixups see misaligned operands,
// and leaves parity slots nil for Encode to allocate.
func alignedShards(code erasure.Code, data [][]byte, align int) [][]byte {
	shards := make([][]byte, code.N())
	for i, d := range data {
		backing := make([]byte, len(d)+8)
		copy(backing[align:], d)
		shards[i] = backing[align : align+len(d)]
	}
	return shards
}

// TestBackendsEncodeIdentity requires every available gf256 backend to
// produce byte-identical parity for every plugin, across shard sizes and
// operand alignments 0-7. The scalar backend is the reference.
func TestBackendsEncodeIdentity(t *testing.T) {
	for _, g := range backendGeometries {
		code, err := erasure.New(g.plugin, g.k, g.m, g.d)
		if err != nil {
			t.Fatalf("%s(k=%d,m=%d,d=%d): %v", g.plugin, g.k, g.m, g.d, err)
		}
		t.Run(Describe(code), func(t *testing.T) {
			for _, size := range backendSizes(code) {
				rng := rand.New(rand.NewSource(int64(g.k*1000 + size)))
				data := make([][]byte, code.K())
				for i := range data {
					data[i] = make([]byte, size)
					rng.Read(data[i])
				}
				want := encodeUnder(t, code, "scalar", data, 0)
				for _, backend := range gf256.Backends() {
					for _, align := range []int{0, 1, 3, 7} {
						got := encodeUnder(t, code, backend, data, align)
						for i := code.K(); i < code.N(); i++ {
							if !bytes.Equal(got[i], want[i]) {
								t.Fatalf("size=%d backend=%s align=%d: parity shard %d differs from scalar reference",
									size, backend, align, i)
							}
						}
					}
				}
			}
		})
	}
}

func encodeUnder(t *testing.T, code erasure.Code, backend string, data [][]byte, align int) [][]byte {
	t.Helper()
	restore, err := gf256.SetBackend(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	shards := alignedShards(code, data, align)
	if err := code.Encode(shards); err != nil {
		t.Fatalf("%s encode under %s: %v", code.Name(), backend, err)
	}
	return shards
}

// TestBackendsRepairIdentity requires repair output to be byte-identical
// across backends for single data-shard, single parity-shard, and (where
// the code tolerates it) double failures. Reconstructed shards must equal
// the originals, so the originals are the reference — no scalar pass
// needed.
func TestBackendsRepairIdentity(t *testing.T) {
	for _, g := range backendGeometries {
		code, err := erasure.New(g.plugin, g.k, g.m, g.d)
		if err != nil {
			t.Fatalf("%s(k=%d,m=%d,d=%d): %v", g.plugin, g.k, g.m, g.d, err)
		}
		t.Run(Describe(code), func(t *testing.T) {
			size := code.SubChunks() * 51
			rng := rand.New(rand.NewSource(int64(g.k*7 + g.m)))
			data := make([][]byte, code.K())
			for i := range data {
				data[i] = make([]byte, size)
				rng.Read(data[i])
			}
			original := encodeUnder(t, code, "scalar", data, 0)
			patterns := [][]int{{0}, {code.K()}}
			if erasure.CanRecover(code, []int{1, code.K() + 1}) {
				patterns = append(patterns, []int{1, code.K() + 1})
			}
			for _, backend := range gf256.Backends() {
				restore, err := gf256.SetBackend(backend)
				if err != nil {
					t.Fatal(err)
				}
				for _, failed := range patterns {
					for _, align := range []int{0, 5} {
						shards := alignedShards(code, original, align)
						for _, f := range failed {
							shards[f] = nil
						}
						if err := code.Repair(shards, failed); err != nil {
							t.Fatalf("backend=%s failed=%v: repair: %v", backend, failed, err)
						}
						for _, f := range failed {
							if !bytes.Equal(shards[f], original[f]) {
								t.Fatalf("backend=%s failed=%v align=%d: shard %d repaired incorrectly",
									backend, failed, align, f)
							}
						}
					}
				}
				restore()
			}
		})
	}
}

// TestBackendsDecodeIdentity runs full Decode (all parities lost, then a
// mixed data+parity loss) under every backend and checks the result
// against the scalar-encoded originals.
func TestBackendsDecodeIdentity(t *testing.T) {
	for _, g := range backendGeometries {
		code, err := erasure.New(g.plugin, g.k, g.m, g.d)
		if err != nil {
			t.Fatalf("%s(k=%d,m=%d,d=%d): %v", g.plugin, g.k, g.m, g.d, err)
		}
		t.Run(Describe(code), func(t *testing.T) {
			size := code.SubChunks() * 128
			rng := rand.New(rand.NewSource(int64(g.k + g.m*13)))
			data := make([][]byte, code.K())
			for i := range data {
				data[i] = make([]byte, size)
				rng.Read(data[i])
			}
			original := encodeUnder(t, code, "scalar", data, 0)
			losses := [][]int{{0}}
			if erasure.CanRecover(code, []int{0, code.N() - 1}) {
				losses = append(losses, []int{0, code.N() - 1})
			}
			for _, backend := range gf256.Backends() {
				restore, err := gf256.SetBackend(backend)
				if err != nil {
					t.Fatal(err)
				}
				for _, lost := range losses {
					shards := alignedShards(code, original, 0)
					for _, f := range lost {
						shards[f] = nil
					}
					if err := code.Decode(shards); err != nil {
						t.Fatalf("backend=%s lost=%v: decode: %v", backend, lost, err)
					}
					for i := range shards {
						if !bytes.Equal(shards[i], original[i]) {
							t.Fatalf("backend=%s lost=%v: shard %d decoded incorrectly", backend, lost, i)
						}
					}
				}
				restore()
			}
		})
	}
}

// BenchmarkBackendsEncode reports encode throughput per backend for the
// paper's RS(12,9) at 64 KiB.
func BenchmarkBackendsEncode(b *testing.B) {
	code, err := erasure.New("jerasure_reed_sol_van", 9, 3, 0)
	if err != nil {
		b.Fatal(err)
	}
	const size = 64 << 10
	for _, backend := range gf256.Backends() {
		restore, err := gf256.SetBackend(backend)
		if err != nil {
			b.Fatal(err)
		}
		shards := make([][]byte, code.N())
		for i := 0; i < code.K(); i++ {
			shards[i] = make([]byte, size)
		}
		b.Run(fmt.Sprintf("%s", backend), func(b *testing.B) {
			b.SetBytes(int64(size * code.K()))
			for i := 0; i < b.N; i++ {
				if err := code.Encode(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
		restore()
	}
}

// TestBackendsSharedRegistryIdentity re-runs the SetBackend sweep against
// the registry-shared instance of each geometry: encode, repair, and
// decode under every backend must be byte-identical between the shared
// code (whose cached programs may have been compiled under a different
// backend earlier in the sweep) and a cold private instance.
func TestBackendsSharedRegistryIdentity(t *testing.T) {
	for _, g := range backendGeometries {
		shared, err := codecache.Get(g.plugin, g.k, g.m, g.d)
		if err != nil {
			t.Fatalf("%s(k=%d,m=%d,d=%d): %v", g.plugin, g.k, g.m, g.d, err)
		}
		again, err := codecache.Get(g.plugin, g.k, g.m, g.d)
		if err != nil {
			t.Fatal(err)
		}
		if shared != again {
			t.Fatalf("%s: registry returned distinct instances", g.plugin)
		}
		private, err := erasure.New(g.plugin, g.k, g.m, g.d)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(Describe(shared), func(t *testing.T) {
			size := shared.SubChunks() * 51
			rng := rand.New(rand.NewSource(int64(g.k*29 + g.m)))
			data := make([][]byte, shared.K())
			for i := range data {
				data[i] = make([]byte, size)
				rng.Read(data[i])
			}
			patterns := [][]int{{0}, {shared.K()}}
			if erasure.CanRecover(private, []int{1, shared.K() + 1}) {
				patterns = append(patterns, []int{1, shared.K() + 1})
			}
			for _, backend := range gf256.Backends() {
				want := encodeUnder(t, private, backend, data, 0)
				got := encodeUnder(t, shared, backend, data, 0)
				for i := shared.K(); i < shared.N(); i++ {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("backend=%s: shared parity shard %d differs from private", backend, i)
					}
				}
				restore, err := gf256.SetBackend(backend)
				if err != nil {
					t.Fatal(err)
				}
				for _, failed := range patterns {
					shards := alignedShards(shared, want, 0)
					for _, f := range failed {
						shards[f] = nil
					}
					if err := shared.Repair(shards, failed); err != nil {
						t.Fatalf("backend=%s failed=%v: shared repair: %v", backend, failed, err)
					}
					for _, f := range failed {
						if !bytes.Equal(shards[f], want[f]) {
							t.Fatalf("backend=%s failed=%v: shared repair of shard %d diverges", backend, failed, f)
						}
					}
					dec := alignedShards(shared, want, 0)
					for _, f := range failed {
						dec[f] = nil
					}
					if err := shared.Decode(dec); err != nil {
						t.Fatalf("backend=%s lost=%v: shared decode: %v", backend, failed, err)
					}
					for i := range dec {
						if !bytes.Equal(dec[i], want[i]) {
							t.Fatalf("backend=%s lost=%v: shared decode of shard %d diverges", backend, failed, i)
						}
					}
				}
				restore()
			}
		})
	}
}
