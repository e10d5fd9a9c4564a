package experiments

import (
	"testing"
	"time"

	"repro/internal/core"
)

// All experiment tests run at a high scale factor so the suite stays
// fast; shape assertions hold across scales.
const testScale = 40

func values(fig *Figure, config string) (rs, clay float64) {
	for _, c := range fig.Cells {
		if c.Config == config {
			return c.Values["RS(12,9)"], c.Values["Clay(12,9,11)"]
		}
	}
	return 0, 0
}

func TestFig2aShape(t *testing.T) {
	fig, err := Fig2aBackendCache(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Cells) != 3 {
		t.Fatalf("cells = %d", len(fig.Cells))
	}
	if fig.Baseline <= 0 {
		t.Fatal("baseline missing")
	}
	// Normalization: the minimum must be 1.00.
	minV := 99.0
	for _, c := range fig.Cells {
		for _, v := range c.Values {
			if v < minV {
				minV = v
			}
			if v < 1.0-1e-9 {
				t.Fatalf("normalized value below 1: %f", v)
			}
		}
	}
	if minV > 1.0+1e-9 {
		t.Fatalf("minimum should normalize to 1.0, got %f", minV)
	}
	// kv-optimized must be the worst scheme for each code (§4.2).
	for _, code := range []string{"RS(12,9)", "Clay(12,9,11)"} {
		kv := fig.Cells[0].Values[code]
		for _, c := range fig.Cells[1:] {
			if kv < c.Values[code]-1e-9 {
				t.Fatalf("%s: kv-optimized (%f) should be slowest, %s is %f", code, kv, c.Config, c.Values[code])
			}
		}
	}
}

func TestFig2bShape(t *testing.T) {
	fig, err := Fig2bPlacementGroups(testScale)
	if err != nil {
		t.Fatal(err)
	}
	rs1, clay1 := values(fig, "1 PG")
	rs16, clay16 := values(fig, "16 PGs")
	rs256, clay256 := values(fig, "256 PGs")
	// Larger pg_num recovers faster, for both codes.
	if !(rs1 > rs16 && rs16 > rs256) {
		t.Fatalf("RS ordering wrong: %f %f %f", rs1, rs16, rs256)
	}
	if !(clay1 > clay16 && clay16 > clay256) {
		t.Fatalf("Clay ordering wrong: %f %f %f", clay1, clay16, clay256)
	}
}

func TestFig2cShape(t *testing.T) {
	fig, err := Fig2cStripeUnit(testScale)
	if err != nil {
		t.Fatal(err)
	}
	rs4k, clay4k := values(fig, "4KB")
	rs4m, clay4m := values(fig, "4MB")
	rs64m, clay64m := values(fig, "64MB")
	// RS: 4KB fastest, 64MB much slower (padding).
	if !(rs64m > 2.5*rs4k) {
		t.Fatalf("RS 64MB should be >2.5x 4KB: %f vs %f", rs64m, rs4k)
	}
	if rs4m > 1.5*rs4k {
		t.Fatalf("RS 4MB should be close to 4KB: %f vs %f", rs4m, rs4k)
	}
	// Clay: sub-packetization makes 4KB much slower than 4MB.
	if !(clay4k > 2*clay4m) {
		t.Fatalf("Clay 4KB should be >2x 4MB: %f vs %f", clay4k, clay4m)
	}
	// Clay at 4KB is also much slower than RS at 4KB (the paper's 4.26x).
	if !(clay4k > 2*rs4k) {
		t.Fatalf("Clay@4KB should be far slower than RS@4KB: %f vs %f", clay4k, rs4k)
	}
	if !(clay64m > 2.5*clay4m) {
		t.Fatalf("Clay 64MB should be slow too: %f vs %f", clay64m, clay4m)
	}
}

func TestFig2dShape(t *testing.T) {
	fig, err := Fig2dFailureMode(testScale)
	if err != nil {
		t.Fatal(err)
	}
	rs2s, _ := values(fig, "2 failures same host")
	rs3s, clay3s := values(fig, "3 failures same host")
	rs3d, _ := values(fig, "3 failures diff. hosts")
	// All bars exceed the single-failure baseline.
	for _, c := range fig.Cells {
		for code, v := range c.Values {
			if v < 1.0 {
				t.Fatalf("%s/%s = %f below single-failure baseline", c.Config, code, v)
			}
		}
	}
	// Three failures slower than two.
	if !(rs3s > rs2s) {
		t.Fatalf("3 same (%f) should exceed 2 same (%f)", rs3s, rs2s)
	}
	// The paper's same-host crossover: Clay recovers faster than RS when
	// all three failures share a host.
	if !(clay3s <= rs3s+1e-9) {
		t.Fatalf("Clay 3-same (%f) should not exceed RS 3-same (%f)", clay3s, rs3s)
	}
	// Locality matters: diff-hosts is not faster than same-host for RS.
	if rs3d < rs3s-0.25 {
		t.Fatalf("3 diff (%f) unexpectedly far below 3 same (%f)", rs3d, rs3s)
	}
}

func TestFig3TimelineShape(t *testing.T) {
	tl, err := Fig3Timeline(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if tl.RecoveryStarted <= 0 || tl.RecoveryFinished <= tl.RecoveryStarted {
		t.Fatalf("timeline degenerate: start=%v finish=%v", tl.RecoveryStarted, tl.RecoveryFinished)
	}
	// The checking period is a substantial share, §4.3's core claim.
	if tl.CheckingFraction < 0.3 || tl.CheckingFraction > 0.8 {
		t.Fatalf("checking fraction = %f", tl.CheckingFraction)
	}
	if tl.FractionRange[0] >= tl.FractionRange[1] {
		t.Fatalf("fraction range degenerate: %v", tl.FractionRange)
	}
	if len(tl.Events) == 0 {
		t.Fatal("no merged log events")
	}
	// Events are time sorted.
	for i := 1; i < len(tl.Events); i++ {
		if tl.Events[i].Time < tl.Events[i-1].Time {
			t.Fatal("events not sorted")
		}
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := Table3WriteAmplification(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	j1, j2 := rows[0].Report, rows[1].Report
	// Paper: actual WA always exceeds n/k, and by more for RS(15,12).
	if j1.DiffVsTheory < 0.15 || j1.DiffVsTheory > 0.55 {
		t.Fatalf("J1 diff = %f, want ~0.32", j1.DiffVsTheory)
	}
	if j2.DiffVsTheory < 0.5 || j2.DiffVsTheory > 0.95 {
		t.Fatalf("J2 diff = %f, want ~0.72", j2.DiffVsTheory)
	}
	if j2.DiffVsTheory <= j1.DiffVsTheory {
		t.Fatal("RS(15,12) must show a larger gap than RS(12,9)")
	}
	if j1.Measured < j1.FormulaBound || j2.Measured < j2.FormulaBound {
		t.Fatal("formula bound violated")
	}
}

func TestWAFormulaValidationHolds(t *testing.T) {
	rows, err := WAFormulaValidation(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 36 {
		t.Fatalf("rows = %d, want 4 geometries x 3 sizes x 3 units", len(rows))
	}
	for _, r := range rows {
		if !r.Holds {
			t.Fatalf("formula violated at k=%d m=%d size=%d unit=%d: measured %f < bound %f",
				r.K, r.M, r.ObjectSize, r.StripeUnit, r.Measured, r.Formula)
		}
	}
}

func TestRunRecoveryRejectsFaultFreeProfile(t *testing.T) {
	p := baseProfile(testScale)
	p.Faults = nil
	if _, _, err := runRecoveries([]core.Profile{p}); err == nil {
		t.Fatal("fault-free profile accepted by runRecoveries")
	}
}

func TestPluginComparison(t *testing.T) {
	rows, err := PluginComparison(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byLabel := map[string]PluginRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
		if r.RecoveryTime <= 0 || r.ActualWA <= 1 || r.DurabilityNines <= 0 {
			t.Fatalf("row %s incomplete: %+v", r.Label, r)
		}
	}
	rs := byLabel["RS(12,9)"]
	clay := byLabel["Clay(12,9,11)"]
	lrc := byLabel["LRC(9,3,3)"]
	shec := byLabel["SHEC(9,5,3)"]
	// Repair-traffic ordering: Clay < LRC < SHEC < RS.
	if !(clay.NetPerChunk < lrc.NetPerChunk && lrc.NetPerChunk < shec.NetPerChunk && shec.NetPerChunk < rs.NetPerChunk) {
		t.Fatalf("traffic ordering wrong: rs=%.2f clay=%.2f lrc=%.2f shec=%.2f",
			rs.NetPerChunk, clay.NetPerChunk, lrc.NetPerChunk, shec.NetPerChunk)
	}
	// RS and Clay store identically; LRC/SHEC pay more parities.
	if lrc.ActualWA <= rs.ActualWA || shec.ActualWA <= rs.ActualWA {
		t.Fatal("locality codes must cost more storage")
	}
}

func TestScaledRunsAreFast(t *testing.T) {
	start := time.Now()
	if _, err := Fig3Timeline(100); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("scaled fig3 took %v", elapsed)
	}
}
