package durability

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/erasure"

	_ "repro/internal/erasure/clay"
	_ "repro/internal/erasure/lrc"
	_ "repro/internal/erasure/reedsolomon"
	_ "repro/internal/erasure/shec"
)

func mustCode(t *testing.T, plugin string, k, m, d int) erasure.Code {
	t.Helper()
	c, err := erasure.New(plugin, k, m, d)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var defaultParams = Params{DeviceAFR: 0.02, MTTRHours: 1}

func TestParamsValidation(t *testing.T) {
	code := mustCode(t, "jerasure_reed_sol_van", 4, 2, 0)
	if _, err := MTTDLHours(code, Params{DeviceAFR: 0, MTTRHours: 1}); err == nil {
		t.Fatal("zero AFR accepted")
	}
	if _, err := MTTDLHours(code, Params{DeviceAFR: 0.02, MTTRHours: 0}); err == nil {
		t.Fatal("zero MTTR accepted")
	}
	if _, err := MTTDLHours(code, Params{DeviceAFR: 1.5, MTTRHours: 1}); err == nil {
		t.Fatal("AFR above 1 accepted")
	}
}

func TestFatalityProfileMDS(t *testing.T) {
	code := mustCode(t, "jerasure_reed_sol_van", 9, 3, 0)
	prof := FatalityProfile(code, 100, 1)
	for i := 0; i <= 3; i++ {
		if prof[i] != 0 {
			t.Fatalf("MDS fatality at %d failures = %f", i, prof[i])
		}
	}
	if prof[4] != 1 {
		t.Fatalf("MDS fatality at m+1 = %f", prof[4])
	}
}

// TestOnlyNonMDSCodesArePatternCheckers guards the MDS fast path: RS
// embeds gensolve.Code, whose exact decodability answer must not be
// promoted to a CanRecover method, or FatalityProfile, cluster
// recovery/health and the fault injector would invert a matrix per
// pattern where an integer compare is exact.
func TestOnlyNonMDSCodesArePatternCheckers(t *testing.T) {
	for _, tc := range []struct {
		plugin string
		d      int
		want   bool
	}{
		{"jerasure_reed_sol_van", 0, false}, {"jerasure_cauchy_orig", 0, false}, {"isa_reed_sol_van", 0, false},
		{"clay", 11, false}, {"lrc", 3, true}, {"shec", 2, true},
	} {
		_, got := mustCode(t, tc.plugin, 9, 3, tc.d).(erasure.PatternChecker)
		if got != tc.want {
			t.Errorf("%s implements erasure.PatternChecker = %v, want %v", tc.plugin, got, tc.want)
		}
	}
	prof := FatalityProfile(mustCode(t, "jerasure_reed_sol_van", 9, 3, 0), 1, 1)
	if want := []float64{0, 0, 0, 0, 1}; !reflect.DeepEqual(prof, want) {
		t.Errorf("rs(12,9) fatality profile = %v, want %v", prof, want)
	}
}

func TestFatalityProfileLRC(t *testing.T) {
	// LRC(8,2,2): m=4, but some 4-failure patterns (a whole group) are
	// fatal while many are fine.
	code := mustCode(t, "lrc", 8, 2, 2)
	prof := FatalityProfile(code, 3000, 7)
	if prof[1] != 0 || prof[2] != 0 {
		t.Fatalf("small patterns should never be fatal: %v", prof)
	}
	if prof[4] <= 0 || prof[4] >= 1 {
		t.Fatalf("LRC 4-failure fatality should be strictly between 0 and 1, got %f", prof[4])
	}
}

func TestMoreParityMoreDurability(t *testing.T) {
	rs93 := mustCode(t, "jerasure_reed_sol_van", 9, 3, 0)
	rs92 := mustCode(t, "jerasure_reed_sol_van", 9, 2, 0)
	d3, err := MTTDLHours(rs93, defaultParams)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := MTTDLHours(rs92, defaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if d3 <= d2 {
		t.Fatalf("m=3 (%e) should far outlast m=2 (%e)", d3, d2)
	}
	if d3 < 100*d2 {
		t.Fatalf("an extra parity should buy orders of magnitude: %e vs %e", d3, d2)
	}
}

func TestFasterRepairMoreDurability(t *testing.T) {
	code := mustCode(t, "jerasure_reed_sol_van", 9, 3, 0)
	fast, _ := MTTDLHours(code, Params{DeviceAFR: 0.02, MTTRHours: 0.5})
	slow, _ := MTTDLHours(code, Params{DeviceAFR: 0.02, MTTRHours: 24})
	if fast <= slow {
		t.Fatalf("faster repair must improve MTTDL: %e vs %e", fast, slow)
	}
}

// TestMTTDLWithSampledProfile: one sampled fatality profile serves every
// repair time, giving exactly what MTTDLHours samples for each.
func TestMTTDLWithSampledProfile(t *testing.T) {
	code := mustCode(t, "lrc", 9, 3, 3)
	prof := FatalityProfile(code, 800, 1)
	for _, mttr := range []float64{0.01, 1, 24} {
		p := Params{DeviceAFR: 0.02, MTTRHours: mttr, Samples: 800, Seed: 1}
		want, err := MTTDLHours(code, p)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := MTTDLHoursWith(code, prof, p); err != nil || got != want {
			t.Errorf("MTTR %gh: MTTDLHoursWith = (%e, %v), want %e", mttr, got, err, want)
		}
	}
}

func TestLRCLessDurableThanMDSSameParityCount(t *testing.T) {
	// Same n and parity count: LRC(8,2,2) has 4 parities like RS(12,8);
	// locality costs durability (some quadruples are fatal).
	lrc := mustCode(t, "lrc", 8, 2, 2)
	rs := mustCode(t, "jerasure_reed_sol_van", 8, 4, 0)
	dl, err := MTTDLHours(lrc, Params{DeviceAFR: 0.02, MTTRHours: 1, Samples: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dr, err := MTTDLHours(rs, defaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if dl >= dr {
		t.Fatalf("LRC (%e) must be less durable than MDS with equal parities (%e)", dl, dr)
	}
}

func TestNinesAndLossProbability(t *testing.T) {
	if p := AnnualLossProbability(hoursPerYear); math.Abs(p-(1-math.Exp(-1))) > 1e-9 {
		t.Fatalf("loss probability = %f", p)
	}
	if AnnualLossProbability(0) != 1 {
		t.Fatal("zero MTTDL should mean certain loss")
	}
	n := Nines(1e12)
	if n < 7 {
		t.Fatalf("1e12 hours should exceed 7 nines, got %f", n)
	}
	if !math.IsInf(Nines(math.Inf(1)), 1) {
		t.Fatal("infinite MTTDL should be infinite nines")
	}
}

func TestEvaluateReport(t *testing.T) {
	code := mustCode(t, "clay", 9, 3, 11)
	rep, err := Evaluate(code, defaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Code != "clay" || rep.N != 12 || rep.K != 9 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.DurabilityNines < 6 {
		t.Fatalf("Clay(12,9) with 1h MTTR should exceed 6 nines, got %f", rep.DurabilityNines)
	}
	if math.Abs(rep.StorageOverhead-4.0/3) > 1e-9 {
		t.Fatalf("overhead = %f", rep.StorageOverhead)
	}
}

func TestDeterministicSampling(t *testing.T) {
	code := mustCode(t, "shec", 10, 6, 3)
	a := FatalityProfile(code, 500, 42)
	b := FatalityProfile(code, 500, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic")
		}
	}
}

// TestFatalityProfileMatchesPerm pins the sampler's patterns to the ones
// rand.Perm draws from the same seed: FatalityProfile draws them into one
// reused buffer with Perm's own swap loop, so the random stream, every
// pattern and the profile stay identical, bit for bit.
func TestFatalityProfileMatchesPerm(t *testing.T) {
	reference := func(code erasure.Code, samples int, seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		out := make([]float64, code.M()+2)
		for size := 1; size <= code.M()+1; size++ {
			fatal := 0
			for range samples {
				if !erasure.CanRecover(code, rng.Perm(code.N())[:size]) {
					fatal++
				}
			}
			out[size] = float64(fatal) / float64(samples)
		}
		return out
	}
	for _, tc := range []struct {
		plugin  string
		k, m, d int
	}{{"lrc", 9, 3, 3}, {"shec", 9, 5, 3}} {
		code := mustCode(t, tc.plugin, tc.k, tc.m, tc.d)
		for _, seed := range []int64{1, 42} {
			got, want := FatalityProfile(code, 1500, seed), reference(code, 1500, seed)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s(%d,%d,%d) seed %d: profile %v, rand.Perm reference %v", tc.plugin, tc.k, tc.m, tc.d, seed, got, want)
			}
			if got[len(got)-1] == 0 {
				t.Errorf("%s(%d,%d,%d) seed %d: no sampled pattern is fatal: %v", tc.plugin, tc.k, tc.m, tc.d, seed, got)
			}
		}
	}
}

// TestFatalityProfileAllocsPerCall: the sampler's allocations do not grow
// with the number of sampled patterns.
func TestFatalityProfileAllocsPerCall(t *testing.T) {
	code := mustCode(t, "lrc", 9, 3, 3)
	few := testing.AllocsPerRun(5, func() { FatalityProfile(code, 10, 1) })
	many := testing.AllocsPerRun(5, func() { FatalityProfile(code, 1500, 1) })
	if many != few {
		t.Fatalf("FatalityProfile allocated %.0f times for 10 samples a size, %.0f for 1,500", few, many)
	}
}
