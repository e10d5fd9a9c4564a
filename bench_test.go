package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablations for the design choices DESIGN.md
// calls out. Each benchmark runs the corresponding experiment end to end
// (cluster build, workload, fault injection, recovery) and reports the
// paper's normalized quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation. benchScale divides the 10,000-object
// workload; shapes are stable across scales (see EXPERIMENTS.md for the
// full-scale numbers).

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/erasure"
	"repro/internal/experiments"
)

const benchScale = 20

func reportCells(b *testing.B, fig *experiments.Figure) {
	b.Helper()
	for _, cell := range fig.Cells {
		for code, v := range cell.Values {
			b.ReportMetric(v, sanitize(cell.Config+"/"+code))
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '(', ')', ',', '.':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkFig2aBackendCache regenerates Figure 2a: normalized recovery
// time under the three BlueStore cache schemes of Table 2.
func BenchmarkFig2aBackendCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig2aBackendCache(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, fig)
	}
}

// BenchmarkFig2bPlacementGroups regenerates Figure 2b: pg_num in
// {1, 16, 256}.
func BenchmarkFig2bPlacementGroups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig2bPlacementGroups(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, fig)
	}
}

// BenchmarkFig2cStripeUnit regenerates Figure 2c: stripe_unit in
// {4KB, 4MB, 64MB}.
func BenchmarkFig2cStripeUnit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig2cStripeUnit(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, fig)
	}
}

// BenchmarkFig2dFailureMode regenerates Figure 2d: two and three
// concurrent OSD failures on the same or different hosts.
func BenchmarkFig2dFailureMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig2dFailureMode(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, fig)
	}
}

// BenchmarkFig3RecoveryTimeline regenerates Figure 3 and the §4.3 sweep:
// the system checking period as a share of the recovery cycle.
func BenchmarkFig3RecoveryTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tl, err := experiments.Fig3Timeline(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tl.CheckingFraction*100, "checking_%")
		b.ReportMetric(tl.FractionRange[0]*100, "checking_min_%")
		b.ReportMetric(tl.FractionRange[1]*100, "checking_max_%")
		b.ReportMetric(tl.RecoveryStarted.Seconds(), "ec_start_s")
		b.ReportMetric(tl.RecoveryFinished.Seconds(), "ec_finish_s")
	}
}

// BenchmarkTable3WriteAmplification regenerates Table 3: theoretical vs
// actual WA of RS(12,9) and RS(15,12).
func BenchmarkTable3WriteAmplification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3WriteAmplification(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Report.Measured, sanitize(fmt.Sprintf("WA_RS_%d_%d", r.Report.N, r.Report.K)))
			b.ReportMetric(r.Report.DiffVsTheory*100, sanitize(fmt.Sprintf("diff_%%_RS_%d_%d", r.Report.N, r.Report.K)))
		}
	}
}

// BenchmarkWAFormulaValidation regenerates the §4.4 formula-validation
// sweep and reports the violation count (must be zero).
func BenchmarkWAFormulaValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.WAFormulaValidation(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		violations := 0
		maxGap := 0.0
		for _, r := range rows {
			if !r.Holds {
				violations++
			}
			if gap := r.Measured - r.Formula; gap > maxGap {
				maxGap = gap
			}
		}
		b.ReportMetric(float64(violations), "violations")
		b.ReportMetric(float64(len(rows)), "points")
		b.ReportMetric(maxGap, "max_S_meta_gap")
	}
}

// BenchmarkAblationClayRepairBandwidth verifies the design-note claim
// that Clay's single-failure repair moves (n-1)/q chunks of traffic
// against Reed-Solomon's k, and quantifies the discontiguous-read
// penalty the cluster model charges for it.
func BenchmarkAblationClayRepairBandwidth(b *testing.B) {
	rs, err := erasure.New("jerasure_reed_sol_van", 9, 3, 0)
	if err != nil {
		b.Fatal(err)
	}
	clay, err := erasure.New("clay", 9, 3, 11)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rsPlan, err := rs.RepairPlan([]int{4})
		if err != nil {
			b.Fatal(err)
		}
		clayPlan, err := clay.RepairPlan([]int{4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rsPlan.ReadFraction(), "rs_chunks_read")
		b.ReportMetric(clayPlan.ReadFraction(), "clay_chunks_read")
		runs := 0
		for _, h := range clayPlan.Helpers {
			runs += h.Runs
		}
		b.ReportMetric(float64(runs)/float64(len(clayPlan.Helpers)), "clay_runs_per_helper")
	}
}

// BenchmarkAblationCheckingPeriod shows why modeling the checking period
// matters (design decision 3): with the mark-out interval removed, the
// same configuration change looks far more significant than it is in a
// real deployment.
func BenchmarkAblationCheckingPeriod(b *testing.B) {
	run := func(markOutSeconds float64, pgs int) time.Duration {
		p := core.DefaultProfile().ScaleWorkload(benchScale)
		p.Name = fmt.Sprintf("ablation-checking-%v-%d", markOutSeconds, pgs)
		if markOutSeconds > 0 {
			p.Tuning.MarkOutIntervalSeconds = markOutSeconds
		} else {
			p.Tuning.MarkOutIntervalSeconds = 0.001
		}
		p.Pool.PGNum = pgs
		res, err := core.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		return res.Recovery.SystemRecoveryTime()
	}
	for i := 0; i < b.N; i++ {
		// Impact of pg_num 16 -> 256 with and without the checking period.
		with16 := run(600.0/benchScale, 16)
		with256 := run(600.0/benchScale, 256)
		wo16 := run(0, 16)
		wo256 := run(0, 256)
		b.ReportMetric(float64(with16)/float64(with256), "pg_speedup_with_checking")
		b.ReportMetric(float64(wo16)/float64(wo256), "pg_speedup_ec_only")
	}
}

// BenchmarkAblationReservations quantifies the osd_max_backfills
// reservation system (design decision: PG-serialized recovery).
func BenchmarkAblationReservations(b *testing.B) {
	run := func(backfills int) time.Duration {
		p := core.DefaultProfile().ScaleWorkload(benchScale)
		p.Name = fmt.Sprintf("ablation-backfills-%d", backfills)
		p.Tuning.MaxBackfills = backfills
		res, err := core.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		return res.Recovery.ECRecoveryPeriod()
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(1).Seconds(), "ec_s_backfills_1")
		b.ReportMetric(run(8).Seconds(), "ec_s_backfills_8")
	}
}

// BenchmarkAblationRecoveryThrottle quantifies the mclock-style recovery
// bandwidth share against an unthrottled run.
func BenchmarkAblationRecoveryThrottle(b *testing.B) {
	run := func(fraction float64) time.Duration {
		p := core.DefaultProfile().ScaleWorkload(benchScale)
		p.Name = fmt.Sprintf("ablation-throttle-%v", fraction)
		p.Tuning.RecoveryBWFraction = fraction
		res, err := core.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		return res.Recovery.ECRecoveryPeriod()
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(0.11).Seconds(), "ec_s_throttled")
		b.ReportMetric(run(1.0).Seconds(), "ec_s_unthrottled")
	}
}

// BenchmarkEndToEndExperiment measures the wall-clock cost of one full
// ECFault experiment cycle at the benchmark scale (coordination overhead
// of the framework itself).
func BenchmarkEndToEndExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := core.DefaultProfile().ScaleWorkload(benchScale)
		p.Name = "bench-e2e"
		if _, err := core.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}
