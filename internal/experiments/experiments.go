// Package experiments reproduces every table and figure of the paper's
// evaluation (§4): the four recovery-time studies of Figure 2, the
// recovery-timeline breakdown of Figure 3, the write-amplification
// measurements of Table 3, and the §4.4 formula validation sweep.
//
// Each experiment builds profiles from the paper's baseline, runs them
// through the ECFault coordinator, and returns the same normalized series
// the paper plots. Scale divides the workload's object count to trade
// fidelity for speed; the normalized shapes are stable across scales.
package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/durability"
	"repro/internal/erasure/codecache"
	"repro/internal/logsys"
	"repro/internal/parallel"
	"repro/internal/wamodel"
)

// Codes under study (§4.1): RS(12,9) and Clay(12,9,11).
var Codes = []struct {
	Label  string
	Plugin string
	D      int
}{
	{"RS(12,9)", "jerasure_reed_sol_van", 0},
	{"Clay(12,9,11)", "clay", 11},
}

// Cell is one bar of a figure: a configuration label and the normalized
// recovery time per code.
type Cell struct {
	Config string
	Values map[string]float64 // code label -> normalized recovery time
}

// Figure is one sub-figure of Figure 2.
type Figure struct {
	ID       string
	Title    string
	Baseline time.Duration // the run every bar is normalized against
	Cells    []Cell
	Raw      map[string]time.Duration // "<config>/<code>" -> absolute time
}

// runProfiles runs independent experiment cells on the process-wide
// sweep: concurrently under the worker budget, cells sharing a layout
// forking one populated snapshot, and a cell whose profile equals, but for
// its name, one of the sweep's 16 most recent served a copy of that
// result without simulating (the paper baselines repeat across figures).
// Every simulated cell builds its own coordinator and forked cluster, so
// cells share no mutable state; repeats share only their read-only
// Timeline and IOSamples. Results come back in input order and the first
// failing cell (by input order) decides the error, the same error a
// serial loop would hit first.
func runProfiles(ps []core.Profile) ([]*core.Result, error) {
	results, errs := cells.Load().Run(ps)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runRecoveries is runProfiles for cells that must produce a recovery.
func runRecoveries(ps []core.Profile) ([]time.Duration, []*core.Result, error) {
	results, err := runProfiles(ps)
	if err != nil {
		return nil, nil, err
	}
	times := make([]time.Duration, len(results))
	for i, res := range results {
		if res.Recovery == nil {
			return nil, nil, fmt.Errorf("experiments: profile %q ran no recovery", ps[i].Name)
		}
		times[i] = res.Recovery.SystemRecoveryTime()
	}
	return times, results, nil
}

func baseProfile(scale int) core.Profile {
	return core.DefaultProfile().ScaleWorkload(scale)
}

func withCode(p core.Profile, plugin string, d int) core.Profile {
	p.Pool.Plugin = plugin
	p.Pool.D = d
	return p
}

// runFigure runs one recovery cell per (config, code) pair, all in one
// batch under the worker budget, and returns the figure with its bars in
// config order. A baseline profile, when given, runs first in the batch,
// is no bar, and is what every bar is normalized against; otherwise the
// fastest bar is (the paper's presentation for Fig. 2a-c).
func runFigure(id, title string, configs []string, baseline *core.Profile, mkProfile func(cfgIdx, codeIdx int) core.Profile) (*Figure, error) {
	var ps []core.Profile
	if baseline != nil {
		ps = append(ps, *baseline)
	}
	for ci := range configs {
		for di := range Codes {
			ps = append(ps, mkProfile(ci, di))
		}
	}
	times, _, err := runRecoveries(ps)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: id, Title: title, Raw: map[string]time.Duration{}}
	if baseline != nil {
		fig.Baseline, times = times[0], times[1:]
	} else {
		fig.Baseline = slices.Min(times)
	}
	for ci, cfg := range configs {
		cell := Cell{Config: cfg, Values: map[string]float64{}}
		for di, code := range Codes {
			d := times[ci*len(Codes)+di]
			fig.Raw[cfg+"/"+code.Label] = d
			cell.Values[code.Label] = float64(d) / float64(fig.Baseline)
		}
		fig.Cells = append(fig.Cells, cell)
	}
	return fig, nil
}

// Fig2aBackendCache reproduces Figure 2a: three BlueStore cache schemes
// under a single OSD-host failure.
func Fig2aBackendCache(scale int) (*Figure, error) {
	schemes := []string{core.SchemeKVOptimized, core.SchemeDataOptimized, core.SchemeAutotune}
	return runFigure("fig2a", "Impact of Backend Cache on EC Recovery Time", schemes, nil, func(ci, di int) core.Profile {
		code := Codes[di]
		p := withCode(baseProfile(scale), code.Plugin, code.D)
		p.Name = fmt.Sprintf("fig2a-%s-%s", schemes[ci], code.Label)
		p.Backend.CacheScheme = schemes[ci]
		return p
	})
}

// Fig2bPlacementGroups reproduces Figure 2b: pg_num in {1, 16, 256}.
func Fig2bPlacementGroups(scale int) (*Figure, error) {
	pgNums := []int{1, 16, 256}
	labels := make([]string, len(pgNums))
	for i, pgs := range pgNums {
		labels[i] = fmt.Sprintf("%d PGs", pgs)
		if pgs == 1 {
			labels[i] = "1 PG"
		}
	}
	return runFigure("fig2b", "Impact of Placement Groups on EC Recovery Time", labels, nil, func(ci, di int) core.Profile {
		code := Codes[di]
		p := withCode(baseProfile(scale), code.Plugin, code.D)
		p.Name = fmt.Sprintf("fig2b-%d-%s", pgNums[ci], code.Label)
		p.Pool.PGNum = pgNums[ci]
		return p
	})
}

// Fig2cStripeUnit reproduces Figure 2c: stripe_unit in {4KB, 4MB, 64MB}
// with pg_num = 256.
func Fig2cStripeUnit(scale int) (*Figure, error) {
	labels := []string{"4KB", "4MB", "64MB"}
	units := []int64{4 << 10, 4 << 20, 64 << 20}
	return runFigure("fig2c", "Impact of Stripe Unit on EC Recovery Time", labels, nil, func(ci, di int) core.Profile {
		code := Codes[di]
		p := withCode(baseProfile(scale), code.Plugin, code.D)
		p.Name = fmt.Sprintf("fig2c-%s-%s", labels[ci], code.Label)
		p.Pool.PGNum = 256
		p.Pool.StripeUnit = units[ci]
		return p
	})
}

// Fig2dFailureMode reproduces Figure 2d: with failure domain OSD and
// three OSDs per host, two or three concurrent device failures placed on
// the same or different hosts. Bars are normalized against a single
// device failure of the RS pool (the paper's implicit baseline).
func Fig2dFailureMode(scale int) (*Figure, error) {
	labels := []string{"2 failures same host", "2 failures diff. hosts", "3 failures same host", "3 failures diff. hosts"}
	counts := []int{2, 2, 3, 3}
	localities := []string{core.LocalitySameHost, core.LocalityDiffHosts, core.LocalitySameHost, core.LocalityDiffHosts}
	profile := func(di int) core.Profile {
		p := withCode(baseProfile(scale), Codes[di].Plugin, Codes[di].D)
		p.Cluster.OSDsPerHost = 3 // the added SSD (§4.2, Failure Mode)
		p.Pool.FailureDomain = "osd"
		p.Pool.PGNum = 256
		return p
	}
	baseline := profile(0)
	baseline.Name = "fig2d-baseline"
	baseline.Faults = []core.FaultSpec{{Level: core.FaultLevelDevice, Count: 1, AtSeconds: 10}}
	return runFigure("fig2d", "Impact of Failure Mode on EC Recovery Time", labels, &baseline, func(ci, di int) core.Profile {
		p := profile(di)
		p.Name = fmt.Sprintf("fig2d-%s-%s", labels[ci], Codes[di].Label)
		p.Faults = []core.FaultSpec{{
			Level: core.FaultLevelDevice, Count: counts[ci],
			Locality: localities[ci], AtSeconds: 10,
		}}
		return p
	})
}

// TimelineResult is the Figure 3 reproduction.
type TimelineResult struct {
	Detected         time.Duration // 0 by construction
	RecoveryStarted  time.Duration
	RecoveryFinished time.Duration
	CheckingFraction float64
	Events           []logsys.Entry
	// FractionRange is the checking fraction across workload scales
	// (§4.3: 41% to 58%).
	FractionRange [2]float64
}

// Fig3Timeline reproduces Figure 3 and the §4.3 sweep: one full recovery
// timeline at the default workload plus the checking-period fraction over
// smaller and larger workloads.
func Fig3Timeline(scale int) (*TimelineResult, error) {
	// One batch: the full-detail run plus the §4.3 workload sweep, matching
	// the volumes of prior work ([41, 54]: roughly 0.5 TB to 1 TB written)
	// with the checking window unchanged.
	p := baseProfile(scale)
	p.Name = "fig3"
	ps := []core.Profile{p}
	for _, mult := range []float64{0.8, 1, 1.6} {
		q := baseProfile(scale)
		q.Name = fmt.Sprintf("fig3-sweep-%gx", mult)
		q.Workload.Objects = max(int(float64(q.Workload.Objects)*mult), 1)
		ps = append(ps, q)
	}
	_, results, err := runRecoveries(ps)
	if err != nil {
		return nil, err
	}
	rec := results[0].Recovery
	out := &TimelineResult{
		RecoveryStarted:  rec.CheckingPeriod(),
		RecoveryFinished: rec.SystemRecoveryTime(),
		CheckingFraction: rec.CheckingFraction(),
		Events:           results[0].Timeline,
		FractionRange:    [2]float64{1, 0},
	}
	for _, r := range results[1:] {
		f := r.Recovery.CheckingFraction()
		if f < out.FractionRange[0] {
			out.FractionRange[0] = f
		}
		if f > out.FractionRange[1] {
			out.FractionRange[1] = f
		}
	}
	return out, nil
}

// phases are Figure 3's annotations in the figure's order: each phase's
// label and the substring that marks its log lines.
var phases = []struct{ substr, label string }{
	{"failure detected", "failure detected"},
	{"receiving heartbeats", "MGR log: receiving heartbeats"},
	{"check recovery resource", "OSD log: check recovery resource"},
	{"collecting missing", "OSD log: collecting missing OSDs, queueing recovery"},
	{"start recovery I/O", "OSD log: start recovery I/O"},
	{"report recovery I/O", "MGR log: report recovery I/O"},
	{"all placement groups active+clean", "OSD log: recovery completed"},
}

// Phase is the log line that opens one Figure 3 phase.
type Phase struct {
	Label string
	logsys.Entry
}

// Phases returns, in Figure 3's order, the first entry of each phase
// that entries hold; a phase none of them marks is left out.
func Phases(entries []logsys.Entry) []Phase {
	var out []Phase
	for _, ph := range phases {
		for _, e := range entries {
			if strings.Contains(e.Message, ph.substr) {
				out = append(out, Phase{ph.label, e})
				break
			}
		}
	}
	return out
}

// WARow is one row of Table 3.
type WARow struct {
	ID     string
	Report wamodel.Report
}

// Table3WriteAmplification reproduces Table 3: the OSD-level WA of
// RS(12,9) and RS(15,12) under the same fault tolerance (m=3).
func Table3WriteAmplification(scale int) ([]WARow, error) {
	rows := []struct {
		id   string
		k, m int
	}{
		{"J1 RS(12,9)", 9, 3},
		{"J2 RS(15,12)", 12, 3},
	}
	ps := make([]core.Profile, len(rows))
	for i, r := range rows {
		p := baseProfile(scale)
		p.Name = "table3-" + r.id
		p.Pool.K = r.k
		p.Pool.M = r.m
		p.Faults = nil // WA is measured on the healthy cluster
		ps[i] = p
	}
	results, err := runProfiles(ps)
	if err != nil {
		return nil, err
	}
	out := make([]WARow, len(rows))
	for i, r := range rows {
		out[i] = WARow{ID: r.id, Report: results[i].WA}
	}
	return out, nil
}

// WAValidationRow is one point of the §4.4 formula validation sweep.
type WAValidationRow struct {
	ObjectSize int64
	K, M       int
	StripeUnit int64
	Formula    float64 // lower bound (S_meta = 0)
	Measured   float64
	Holds      bool // measured >= formula
}

// WAFormulaValidation sweeps object size, (n,k) and stripe_unit and
// checks the paper's claim that the formula lower-bounds the measured WA.
func WAFormulaValidation(scale int) ([]WAValidationRow, error) {
	geometries := []struct{ k, m int }{{9, 3}, {12, 3}, {4, 2}, {10, 4}}
	sizes := []int64{4 << 20, 16 << 20, 64 << 20}
	units := []int64{1 << 20, 4 << 20, 16 << 20}
	var ps []core.Profile
	var rows []WAValidationRow
	for _, g := range geometries {
		for _, size := range sizes {
			for _, unit := range units {
				p := baseProfile(scale)
				p.Name = fmt.Sprintf("wa-k%d-m%d-%d-%d", g.k, g.m, size, unit)
				p.Pool.K = g.k
				p.Pool.M = g.m
				p.Pool.StripeUnit = unit
				p.Workload.ObjectSize = size
				p.Workload.Objects = max(p.Workload.Objects/4, 8)
				p.Faults = nil
				ps = append(ps, p)
				rows = append(rows, WAValidationRow{
					ObjectSize: size,
					K:          g.k, M: g.m,
					StripeUnit: unit,
				})
			}
		}
	}
	results, err := runProfiles(ps)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		rows[i].Formula = res.WA.FormulaBound
		rows[i].Measured = res.WA.Measured
		rows[i].Holds = res.WA.Measured >= res.WA.FormulaBound-1e-9
	}
	return rows, nil
}

// PluginRow compares one erasure-code plugin on the paper's baseline
// experiment: single OSD-host failure, same fault tolerance where the
// construction allows it.
type PluginRow struct {
	Label           string
	Plugin          string
	K, M, D         int
	RecoveryTime    time.Duration
	CheckingPercent float64
	NetPerChunk     float64 // network bytes moved per repaired chunk, in chunk units
	ActualWA        float64
	DurabilityNines float64
}

// PluginComparison runs the paper's baseline failure experiment across
// all four EC plugins — the study §6 envisions extending to more codes.
// RS and Clay use the paper's (12,9); LRC uses 9 data chunks in 3 groups
// with 3 global parities; SHEC uses k=9, m=5, c=3.
func PluginComparison(scale int) ([]PluginRow, error) {
	configs := []struct {
		label   string
		plugin  string
		k, m, d int
	}{
		{"RS(12,9)", "jerasure_reed_sol_van", 9, 3, 0},
		{"Clay(12,9,11)", "clay", 9, 3, 11},
		{"LRC(9,3,3)", "lrc", 9, 3, 3},
		{"SHEC(9,5,3)", "shec", 9, 5, 3},
	}
	ps := make([]core.Profile, len(configs))
	for i, cfg := range configs {
		p := baseProfile(scale)
		p.Name = "plugins-" + cfg.label
		p.Pool.Plugin = cfg.plugin
		p.Pool.K = cfg.k
		p.Pool.M = cfg.m
		p.Pool.D = cfg.d
		ps[i] = p
	}
	results, err := runProfiles(ps)
	if err != nil {
		return nil, fmt.Errorf("experiments: plugin comparison: %w", err)
	}
	out := make([]PluginRow, len(configs))
	for i, cfg := range configs {
		res := results[i]
		rec := res.Recovery
		row := PluginRow{
			Label: cfg.label, Plugin: cfg.plugin, K: cfg.k, M: cfg.m, D: cfg.d,
			RecoveryTime:    rec.SystemRecoveryTime(),
			CheckingPercent: rec.CheckingFraction() * 100,
			ActualWA:        res.WA.Measured,
		}
		if rec.RepairedChunks > 0 {
			chunkBytes := float64(rec.WrittenBytes) / float64(rec.RepairedChunks)
			if chunkBytes > 0 {
				row.NetPerChunk = float64(rec.NetworkBytes-rec.WrittenBytes) / float64(rec.RepairedChunks) / chunkBytes
			}
		}
		out[i] = row
	}
	// The durability Monte Carlo is independent per plugin, so it fans out
	// over the worker pool; each worker writes only its own index, keeping
	// the rows input-order stable regardless of scheduling.
	parallel.ForEach(len(configs), parallel.Workers(), func(i int) {
		cfg := configs[i]
		code, err := codecache.Get(cfg.plugin, cfg.k, cfg.m, cfg.d)
		if err != nil {
			return
		}
		rep, derr := durability.Evaluate(code, durability.Params{
			DeviceAFR: 0.02,
			MTTRHours: out[i].RecoveryTime.Hours(),
			Samples:   1500,
			Seed:      7,
		})
		if derr == nil {
			out[i].DurabilityNines = rep.DurabilityNines
		}
	})
	return out, nil
}

// ArtifactIDs name the evaluation's artifacts in the order ecbench prints
// them: each is an ecbench -only id and the artifact a claim reads.
var ArtifactIDs = []string{"fig2a", "fig2b", "fig2c", "fig2d", "fig3", "table3", "wa", "plugins"}

// Artifacts is one run of the paper's evaluation, encoded as ecbench
// -json prints it; an artifact not asked for is nil.
type Artifacts struct {
	Fig2a   *Figure           `json:"fig2a,omitempty"`
	Fig2b   *Figure           `json:"fig2b,omitempty"`
	Fig2c   *Figure           `json:"fig2c,omitempty"`
	Fig2d   *Figure           `json:"fig2d,omitempty"`
	Fig3    *TimelineResult   `json:"fig3,omitempty"`
	Plugins []PluginRow       `json:"plugins,omitempty"`
	Table3  []WARow           `json:"table3,omitempty"`
	WA      []WAValidationRow `json:"wa_validation,omitempty"`
}

// Run computes at scale the artifacts whose ids are given, every one when
// none is, in ArtifactIDs order; the first that fails stops the run.
func Run(scale int, ids ...string) (*Artifacts, error) {
	a := &Artifacts{}
	steps := map[string]func() error{
		"fig2a":   func() (err error) { a.Fig2a, err = Fig2aBackendCache(scale); return },
		"fig2b":   func() (err error) { a.Fig2b, err = Fig2bPlacementGroups(scale); return },
		"fig2c":   func() (err error) { a.Fig2c, err = Fig2cStripeUnit(scale); return },
		"fig2d":   func() (err error) { a.Fig2d, err = Fig2dFailureMode(scale); return },
		"fig3":    func() (err error) { a.Fig3, err = Fig3Timeline(scale); return },
		"table3":  func() (err error) { a.Table3, err = Table3WriteAmplification(scale); return },
		"wa":      func() (err error) { a.WA, err = WAFormulaValidation(scale); return },
		"plugins": func() (err error) { a.Plugins, err = PluginComparison(scale); return },
	}
	for _, id := range ArtifactIDs {
		if len(ids) == 0 || slices.Contains(ids, id) {
			if err := steps[id](); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}
