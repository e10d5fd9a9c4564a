package conformance

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/erasure"
	"repro/internal/erasure/kernel"
	"repro/internal/parallel"
)

// serialParallelCases covers every registered plugin family.
var serialParallelCases = []struct {
	plugin  string
	k, m, d int
}{
	{"jerasure_reed_sol_van", 9, 3, 0},
	{"jerasure_cauchy_orig", 9, 3, 0},
	{"isa_reed_sol_van", 6, 3, 0},
	{"clay", 9, 3, 11},
	{"clay", 8, 3, 10}, // shortened grid
	{"lrc", 9, 3, 3},
	{"shec", 9, 5, 3},
}

// shardSizes returns per-code shard sizes that exercise the word kernel's
// aligned path, its scalar head/tail handling (sizes not divisible by 8),
// and — for sub-chunked codes — odd sub-chunk sizes.
func shardSizes(code erasure.Code) []int {
	alpha := code.SubChunks()
	if alpha == 1 {
		// 37 and 1003 are deliberately not multiples of 8. The big one is
		// sized so that the m-row encode program clears kernel.Program's
		// fan-out threshold; +5 keeps the tail unaligned.
		_, threshold, _ := kernel.Tuning()
		return []int{37, 1003, threshold/code.M() + 5}
	}
	// Odd sub-chunk sizes (37, 811 bytes) keep every plane slice unaligned.
	return []int{alpha * 37, alpha * 811}
}

func encodeWith(t *testing.T, code erasure.Code, size, workers int, seed int64) [][]byte {
	t.Helper()
	prev := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	rng := rand.New(rand.NewSource(seed))
	shards := make([][]byte, code.N())
	for i := 0; i < code.K(); i++ {
		shards[i] = make([]byte, size)
		rng.Read(shards[i])
	}
	if err := code.Encode(shards); err != nil {
		t.Fatalf("encode (workers=%d): %v", workers, err)
	}
	return shards
}

func compareShards(t *testing.T, what string, serial, par [][]byte) {
	t.Helper()
	for i := range serial {
		if !bytes.Equal(serial[i], par[i]) {
			t.Errorf("%s: shard %d differs between serial and parallel execution", what, i)
		}
	}
}

// TestSerialParallelIdentical requires, for every plugin, that encode,
// decode, and repair through the kernel produce byte-identical shards
// whether the stripe runs serially or fanned out over a forced worker
// count — including shard sizes with non-8-byte-aligned tails.
func TestSerialParallelIdentical(t *testing.T) {
	for _, tc := range serialParallelCases {
		code, err := erasure.New(tc.plugin, tc.k, tc.m, tc.d)
		if err != nil {
			t.Fatalf("%s(k=%d,m=%d,d=%d): %v", tc.plugin, tc.k, tc.m, tc.d, err)
		}
		t.Run(Describe(code), func(t *testing.T) {
			for _, size := range shardSizes(code) {
				seed := int64(size) * 31
				serial := encodeWith(t, code, size, 1, seed)
				par := encodeWith(t, code, size, 8, seed)
				compareShards(t, "encode", serial, par)

				// Decode with the first data shard and the first parity
				// erased (a single data erasure when m == 1).
				erase := []int{0}
				if code.M() > 1 {
					erase = append(erase, code.K())
				}
				serialDec := cloneShards(serial)
				parDec := cloneShards(serial)
				for _, e := range erase {
					serialDec[e] = nil
					parDec[e] = nil
				}
				prev := parallel.SetWorkers(1)
				err := code.Decode(serialDec)
				parallel.SetWorkers(8)
				errPar := code.Decode(parDec)
				parallel.SetWorkers(prev)
				if err != nil || errPar != nil {
					t.Fatalf("decode size %d: serial err %v, parallel err %v", size, err, errPar)
				}
				compareShards(t, "decode", serialDec, parDec)

				// Repair of shard 1 from the plan's helpers only.
				serialRep := cloneShards(serial)
				parRep := cloneShards(serial)
				serialRep[1] = nil
				parRep[1] = nil
				prev = parallel.SetWorkers(1)
				err = code.Repair(serialRep, []int{1})
				parallel.SetWorkers(8)
				errPar = code.Repair(parRep, []int{1})
				parallel.SetWorkers(prev)
				if err != nil || errPar != nil {
					t.Fatalf("repair size %d: serial err %v, parallel err %v", size, err, errPar)
				}
				compareShards(t, "repair", serialRep, parRep)

				// Both must reproduce the original content.
				compareShards(t, "decode vs encode", serial, serialDec)
				compareShards(t, "repair vs encode", serial, serialRep)
			}
		})
	}
}
