package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/erasure/codecache"
	"repro/internal/experiments"
	"repro/internal/report"
)

// campaignResult is what one pass over the paper's evaluation produced.
type campaignResult struct {
	rendered     string  // everything ecbench would print
	paperMAE     float64 // mean absolute error of fig2a-d against the paper's bars
	waViolations int     // WA validation rows where the formula did not bound the measurement

	snapHits, snapMisses, snapEvictions int64
	codeHits, codeMisses                int64
}

// campaignOp computes exactly what `ecbench -scale N` computes, from a
// cold snapshot cache, and renders it the way ecbench prints it.
func campaignOp(tr *tracer, scale int) (campaignResult, error) {
	var out campaignResult
	var err error
	step := func(name string, fn func() error) {
		if err == nil {
			tr.do(name, func() { err = fn() })
		}
	}

	experiments.ResetSnapshotCache()
	codeHits0, codeMisses0 := codecache.Stats()

	var figs []*experiments.Figure
	for _, f := range []struct {
		name string
		fn   func(int) (*experiments.Figure, error)
	}{
		{"experiments.Fig2aBackendCache", experiments.Fig2aBackendCache},
		{"experiments.Fig2bPlacementGroups", experiments.Fig2bPlacementGroups},
		{"experiments.Fig2cStripeUnit", experiments.Fig2cStripeUnit},
		{"experiments.Fig2dFailureMode", experiments.Fig2dFailureMode},
	} {
		f := f
		step(f.name, func() error {
			fig, err := f.fn(scale)
			figs = append(figs, fig)
			return err
		})
	}
	var tl *experiments.TimelineResult
	step("experiments.Fig3Timeline", func() (err error) { tl, err = experiments.Fig3Timeline(scale); return })
	var table3 []experiments.WARow
	step("experiments.Table3WriteAmplification", func() (err error) {
		table3, err = experiments.Table3WriteAmplification(scale)
		return
	})
	var wa []experiments.WAValidationRow
	step("experiments.WAFormulaValidation", func() (err error) { wa, err = experiments.WAFormulaValidation(scale); return })
	var plugins []experiments.PluginRow
	step("experiments.PluginComparison", func() (err error) { plugins, err = experiments.PluginComparison(scale); return })
	if err != nil {
		return out, err
	}

	tr.do("report.render", func() {
		var b strings.Builder
		for _, fig := range figs {
			b.WriteString(report.Figure(fig))
		}
		b.WriteString(report.Timeline(tl))
		if len(tl.Events) > 0 {
			b.WriteString(report.TimelineEvents(tl.Events, tl.Events[0].Time))
		}
		b.WriteString(report.Table3(table3))
		b.WriteString(report.WAValidation(wa))
		b.WriteString(report.Plugins(plugins))
		out.rendered = b.String()
	})

	for _, fig := range figs {
		deltas := experiments.CompareFigure(fig)
		// CompareFigure walks a map; sort so the sum repeats to the bit.
		sort.Slice(deltas, func(i, j int) bool { return deltas[i].Key < deltas[j].Key })
		out.paperMAE += experiments.MeanAbsErr(deltas) / float64(len(figs))
	}
	for _, row := range wa {
		if !row.Holds {
			out.waViolations++
		}
	}
	out.snapHits, out.snapMisses, out.snapEvictions = experiments.SnapshotCacheStats()
	codeHits1, codeMisses1 := codecache.Stats()
	out.codeHits, out.codeMisses = codeHits1-codeHits0, codeMisses1-codeMisses0
	return out, nil
}

// campaign is the north-star workload: one operation is the paper's full
// evaluation, as `ecbench -scale 1` runs it.
type campaign struct {
	medianOps
	paperMAE float64 // of the latest pass; every pass must render the same figures
}

func (w *campaign) setup(r *run) error {
	// One warm-up pass grows the heap to its steady size and builds the
	// codes; every pass starts from a cold snapshot cache regardless.
	for i := 0; i < r.cfg.warmups(1); i++ {
		w.round(r)
	}
	return nil
}

func (w *campaign) round(r *run) {
	r.tr.nextOp()
	var res campaignResult
	var err error
	var d time.Duration
	r.tr.do("op", func() {
		start := time.Now()
		res, err = campaignOp(r.tr, r.cfg.scale)
		d = time.Since(start)
	})
	if err == nil {
		if res.waViolations > 0 {
			err = fmt.Errorf("%d WA formula violations", res.waViolations)
		} else {
			// Every iteration must reproduce the first one's figures.
			err = r.expect("campaign", textDigest(res.rendered))
		}
	}
	w.paperMAE = res.paperMAE
	r.record(opSample{key: "campaign", ms: float64(d) / 1e6}, err)
}

func (w *campaign) own([]opSample) map[string]float64 {
	return map[string]float64{"paper_mae": w.paperMAE, "peak_rss_mb": peakRSSMB()}
}

// singleRun is one cold `ecfault` run per operation, alternating the
// paper's RS and Clay baselines: populate does most of the work and no
// snapshot is reused.
type singleRun struct{ medianOps }

func singleRunProfiles(scale int) []core.Profile {
	return []core.Profile{
		core.DefaultProfile().ScaleWorkload(scale),
		core.ClayProfile().ScaleWorkload(scale),
	}
}

func (w *singleRun) setup(r *run) error {
	for i := 0; i < r.cfg.warmups(10); i += 2 {
		w.round(r)
	}
	return nil
}

func (w *singleRun) round(r *run) {
	for _, p := range singleRunProfiles(r.cfg.scale) {
		p := p
		r.simOp(p.Name, "core.Run", func() (*core.Result, error) { return core.Run(p) })
	}
}

// forkCell is one point of the fork_sweep grid: a recovery-side variation
// of the profile a warm snapshot was populated from.
type forkCell struct {
	name    string
	snap    *core.Snapshot
	profile core.Profile
}

// forkSweep runs recovery-side variations on warm snapshots — what
// ectuner's grid search and every figure's non-first cell do. Populate
// happens in set-up only.
type forkSweep struct {
	medianOps
	cells []forkCell
}

// forkLayouts are the four populated images: the paper's default layout
// and Fig. 2d's (three OSDs per host, osd failure domain), each under
// RS(12,9) and Clay(12,9,11).
func forkLayouts(scale int) []core.Profile {
	var out []core.Profile
	for _, base := range singleRunProfiles(scale) {
		wide := base
		wide.Name += "-osd-domain"
		wide.Cluster.OSDsPerHost = 3
		wide.Pool.FailureDomain = "osd"
		out = append(out, base, wide)
	}
	return out
}

// forkGrid lists the recovery-side variations of one layout: cache scheme
// x fault x max_backfills. No layout-relevant field changes, so every
// cell runs on a fork of the layout's snapshot.
func forkGrid(layout core.Profile) []core.Profile {
	schemes := []string{core.SchemeKVOptimized, core.SchemeDataOptimized, core.SchemeAutotune}
	faults := []struct {
		label string
		spec  core.FaultSpec
	}{
		{"node1", core.FaultSpec{Level: core.FaultLevelNode, Count: 1, AtSeconds: 10}},
		{"dev1", core.FaultSpec{Level: core.FaultLevelDevice, Count: 1, AtSeconds: 10}},
		{"dev2same", core.FaultSpec{Level: core.FaultLevelDevice, Count: 2, Locality: core.LocalitySameHost, AtSeconds: 10}},
		{"dev2diff", core.FaultSpec{Level: core.FaultLevelDevice, Count: 2, Locality: core.LocalityDiffHosts, AtSeconds: 10}},
		{"dev3diff", core.FaultSpec{Level: core.FaultLevelDevice, Count: 3, Locality: core.LocalityDiffHosts, AtSeconds: 10}},
	}
	var out []core.Profile
	for _, scheme := range schemes {
		for _, f := range faults {
			for _, backfills := range []int{1, 4} {
				q := layout
				q.Name = fmt.Sprintf("%s/%s/%s/bf%d", layout.Name, scheme, f.label, backfills)
				q.Backend.CacheScheme = scheme
				q.Faults = []core.FaultSpec{f.spec}
				q.Tuning.MaxBackfills = backfills
				out = append(out, q)
			}
		}
	}
	return out
}

func (w *forkSweep) setup(r *run) error {
	w.cells = nil
	for _, layout := range forkLayouts(r.cfg.scale) {
		snap, err := core.Populate(layout)
		if err != nil {
			return fmt.Errorf("populating %s: %w", layout.Name, err)
		}
		for _, q := range forkGrid(layout) {
			w.cells = append(w.cells, forkCell{name: q.Name, snap: snap, profile: q})
		}
	}
	rand.New(rand.NewSource(r.seed)).Shuffle(len(w.cells), func(i, j int) {
		w.cells[i], w.cells[j] = w.cells[j], w.cells[i]
	})
	// The first cell of each layout in the shuffled order is pinned to a
	// cold run of the same profile: a fork must be indistinguishable from
	// a freshly built cluster.
	pinned := map[*core.Snapshot]bool{}
	for _, c := range w.cells {
		if pinned[c.snap] {
			continue
		}
		pinned[c.snap] = true
		cold, err := core.Run(c.profile)
		if err == nil {
			err = r.checkResult(c.name, cold)
		}
		if err != nil {
			return fmt.Errorf("cold run of %s: %w", c.name, err)
		}
	}
	w.cells = w.cells[:r.cfg.shrunk(len(w.cells))]
	for _, c := range w.cells[:r.cfg.warmups(20)] {
		w.op(r, c)
	}
	return nil
}

func (w *forkSweep) op(r *run, c forkCell) {
	r.simOp(c.name, "core.Snapshot.Run", func() (*core.Result, error) { return c.snap.Run(c.profile) })
}

func (w *forkSweep) round(r *run) {
	for _, c := range w.cells {
		w.op(r, c)
	}
}
