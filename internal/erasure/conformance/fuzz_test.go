package conformance

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/erasure"
)

// matrixPlugins are the generator-matrix plugins, in the order the fuzzer
// indexes them.
var matrixPlugins = []string{"jerasure_reed_sol_van", "jerasure_cauchy_orig", "isa_reed_sol_van", "lrc", "shec"}

// FuzzMatrixCodeRoundTrip holds the matrix codes to their own
// decodability answer: for any geometry the registry accepts and any
// erasure pattern, a pattern erasure.CanRecover admits must decode back
// to the encoded stripe and repair from nothing but the planned helpers,
// and one it rejects must fail both ways with ErrTooManyErasures. The
// seed corpus has one case per plugin, among them an LRC quadruple (a
// whole local group) and a SHEC pattern wider than c (a data chunk and the
// three parities whose windows cover it) that are undecodable.
func FuzzMatrixCodeRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(9), uint8(3), uint8(0), uint16(4096), uint64(0b100000010010))
	f.Add(uint8(1), uint8(4), uint8(2), uint8(0), uint16(1), uint64(0b111))
	f.Add(uint8(2), uint8(6), uint8(3), uint8(0), uint16(333), uint64(0b101000001))
	f.Add(uint8(3), uint8(8), uint8(2), uint8(2), uint16(64), uint64(0b1111))
	f.Add(uint8(3), uint8(8), uint8(2), uint8(2), uint16(65), uint64(0b10100010001))
	f.Add(uint8(4), uint8(10), uint8(6), uint8(3), uint16(100), uint64(0b1110000001000))
	f.Add(uint8(4), uint8(10), uint8(6), uint8(3), uint16(7), uint64(0b10000000100))
	f.Add(uint8(3), uint8(21), uint8(2), uint8(1), uint16(27), uint64(0)) // nothing erased
	f.Fuzz(func(t *testing.T, plugin, k, m, d uint8, shardBytes uint16, mask uint64) {
		if int(k)+int(m) > 64 {
			t.Skip("the erasure mask has 64 bits")
		}
		code, err := erasure.New(matrixPlugins[int(plugin)%len(matrixPlugins)], int(k), int(m), int(d))
		if err != nil {
			t.Skip(err)
		}
		if code.N() > 64 {
			t.Skip("the erasure mask has 64 bits")
		}
		n, size := code.N(), 1+int(shardBytes)%4096
		var failed []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				failed = append(failed, i)
			}
		}
		if len(failed) == n {
			t.Skip("no shard left to size the stripe from")
		}
		original := encode(t, code, size, rand.New(rand.NewSource(int64(mask)^int64(size))))
		erased := cloneShards(original)
		for _, i := range failed {
			erased[i] = nil
		}

		if !erasure.CanRecover(code, failed) {
			if err := code.Decode(erased); !errors.Is(err, erasure.ErrTooManyErasures) {
				t.Fatalf("%s: Decode of unrecoverable %v: %v", Describe(code), failed, err)
			}
			if _, err := code.RepairPlan(failed); !errors.Is(err, erasure.ErrTooManyErasures) {
				t.Fatalf("%s: RepairPlan of unrecoverable %v: %v", Describe(code), failed, err)
			}
			if err := code.Repair(erased, failed); !errors.Is(err, erasure.ErrTooManyErasures) {
				t.Fatalf("%s: Repair of unrecoverable %v: %v", Describe(code), failed, err)
			}
			return
		}

		if err := code.Decode(erased); err != nil {
			t.Fatalf("%s: Decode %v: %v", Describe(code), failed, err)
		}
		for i := range original {
			if !bytes.Equal(erased[i], original[i]) {
				t.Fatalf("%s: Decode %v rebuilt shard %d wrong", Describe(code), failed, i)
			}
		}
		plan, err := code.RepairPlan(failed)
		if err != nil {
			t.Fatalf("%s: RepairPlan %v: %v", Describe(code), failed, err)
		}
		helpers := make([][]byte, n)
		for _, h := range plan.Helpers {
			helpers[h.Shard] = original[h.Shard]
		}
		if err := code.Repair(helpers, failed); err != nil {
			t.Fatalf("%s: Repair %v from its planned helpers: %v", Describe(code), failed, err)
		}
		for _, i := range failed {
			if !bytes.Equal(helpers[i], original[i]) {
				t.Fatalf("%s: Repair %v rebuilt shard %d wrong", Describe(code), failed, i)
			}
		}
	})
}
