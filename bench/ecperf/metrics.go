package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEndDefs are the metrics a user of the system sees. Every workload
// reports every one of them (the benchmark contract compares each
// workload x metric pair against the parent commit), so only metrics that
// are defined and never zero on all four workloads are here; the ones
// that exist on one workload only are in ownDefs.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
}

// ownDef is an end-to-end metric only one workload has. The contract's
// result line cannot carry it (there every workload prints every metric),
// so it lives in the untraced run's record, under "own", with its bound
// here; -compare checks it beside the common four.
type ownDef struct {
	metricDef
	better   string
	bound    float64
	absolute bool // bound is a difference, not a share of A's median
}

// timingBound is the bound of every metric that is a host time or a
// rate over one, the same as the timing metrics have in BENCHMARK.json:
// between runs this host's speed moves by more than a tenth (README,
// "Host noise"), and a bound inside the noise decides nothing.
const timingBound = 0.25

// ownDefs: what the paper's figures say and how much memory the campaign
// needs; what the codecs deliver per operation — by regime, as the issue
// defines the end-to-end numbers, and by series, so that one shard size
// of one code cannot halve unseen inside a geometric mean. Peak RSS is
// here for campaign only: on the 60 MB workloads it follows GC timing.
var ownDefs = map[string][]ownDef{
	"campaign": {
		{metricDef{"paper_mae", "abs"}, "lower", 0.005, true},
		{metricDef{"peak_rss_mb", "MB"}, "lower", 0.10, false},
	},
	"codec_stripe": codecOwnDefs(),
}

// ownMetricDefs lists the names and units of a workload's own metrics.
func ownMetricDefs(workload string) []metricDef {
	var defs []metricDef
	for _, d := range ownDefs[workload] {
		defs = append(defs, d.metricDef)
	}
	return defs
}

func codecOwnDefs() []ownDef {
	var defs []ownDef
	for _, d := range codecThroughputDefs() {
		defs = append(defs, ownDef{d, "higher", timingBound, false})
	}
	return defs
}

// codecThroughputDefs names what codecThroughput computes: six regime
// means, then the 24 series x operation values.
func codecThroughputDefs() []metricDef {
	var defs []metricDef
	for _, op := range codecOps {
		for _, regime := range []string{"small", "large"} {
			defs = append(defs, metricDef{op + "_" + regime + "_MBps", "MB/s"})
		}
	}
	for _, c := range codecCodes {
		for _, sz := range codecSizes {
			for _, op := range codecOps {
				defs = append(defs, metricDef{c.label + "." + sz.label + "." + op + "_MBps", "MB/s"})
			}
		}
	}
	return defs
}

// layerDefs lists the per-layer metrics in report order. Layers are
// package names.
func layerDefs() []metricDef {
	defs := []metricDef{
		{"cluster.new_ms", "ms"},
		{"cluster.createpool_ms", "ms"},
		{"cluster.bulkload_ms", "ms"},
		{"cluster.bulkload_alloc_mb", "MB"},
		{"cluster.freeze_ms", "ms"},
		{"cluster.freeze_alloc_mb", "MB"},
		{"cluster.fork_ms", "ms"},
		{"cluster.schedule_ms", "ms"},
		{"cluster.runsim_ms", "ms"},
		{"cluster.runsim_alloc_mb", "MB"},
		{"cluster.runsim_us_per_repair", "us"},
		{"cluster.object_repairs", "count"},
		{"cluster.sim_recovery_s", "s"},
		{"cluster.sim_checking_frac", "ratio"},
		{"cluster.sim_network_gb", "GB"},
		{"core.run_ms", "ms"},
		{"core.populate_ms", "ms"},
		{"core.snapshot_run_ms", "ms"},
		{"core.finish_self_ms", "ms"},
		{"core.coordinator_setup_ms", "ms"},
		{"core.timeline_entries", "count"},
		{"core.snapshot_live_mb", "MB"},
		{"experiments.fig2a_ms", "ms"},
		{"experiments.fig2b_ms", "ms"},
		{"experiments.fig2c_ms", "ms"},
		{"experiments.fig2d_ms", "ms"},
		{"experiments.fig3_ms", "ms"},
		{"experiments.table3_ms", "ms"},
		{"experiments.wa_ms", "ms"},
		{"experiments.plugins_ms", "ms"},
		{"experiments.cells", "count"},
		{"experiments.snapshot_hits", "count"},
		{"experiments.snapshot_misses", "count"},
		{"experiments.snapshot_evictions", "count"},
		{"experiments.paper_mae", "abs"},
		{"codecache.hits", "count"},
		{"codecache.misses", "count"},
		{"report.render_ms", "ms"},
		{"workload.objects_ms", "ms"},
	}
	for _, d := range codecThroughputDefs() {
		defs = append(defs, metricDef{"erasure." + d.name, d.unit})
	}
	return append(defs,
		metricDef{"gf256.row_muladd_4KiB_MBps", "MB/s"},
		metricDef{"gf256.row_muladd_64KiB_MBps", "MB/s"},
		metricDef{"kernel.chunk_bytes", "bytes"},
		metricDef{"kernel.parallel_threshold", "bytes"},
		metricDef{"kernel.strided_threshold", "bytes"},
		metricDef{"parallel.workers", "count"},
		metricDef{"parallel.kernel_workers", "count"},
		metricDef{"runtime.gc_count", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"runtime.gc_cpu_pct", "%"},
		metricDef{"runtime.heap_peak_mb", "MB"},
		metricDef{"runtime.peak_rss_mb", "MB"},
		metricDef{"driver.samples", "count"},
		metricDef{"driver.op_tail_ms", "ms"},
		metricDef{"driver.op_tail_pct", "%"},
		metricDef{"driver.op_iqr_ms", "ms"},
		metricDef{"driver.trace_overhead_pct", "%"},
	)
}

// withUnits attaches each definition's unit to its value and refuses a
// result that misses a declared metric or holds a non-finite one.
func withUnits(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("%d values for %d declared metrics", len(values), len(defs))
	}
	return out, nil
}

// runtimeStats is a reading of the collector's cumulative counters and of
// the process's memory high-water marks.
type runtimeStats struct {
	gcCount    uint32
	pauseNS    uint64
	gcCPU, cpu float64 // seconds
	heapSysMB  float64
	peakRSSMB  float64
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	st := runtimeStats{
		gcCount: ms.NumGC, pauseNS: ms.PauseTotalNs,
		heapSysMB: mb(float64(ms.HeapSys)), peakRSSMB: peakRSSMB(),
	}
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		st.gcCPU, st.cpu = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	return st
}

// runtimeMetrics reports what the collector did between two readings, and
// the memory high-water marks at the second.
func runtimeMetrics(before, after runtimeStats) map[string]float64 {
	pct := 0.0
	if d := after.cpu - before.cpu; d > 0 {
		pct = 100 * (after.gcCPU - before.gcCPU) / d
	}
	return map[string]float64{
		"runtime.gc_count":     float64(after.gcCount - before.gcCount),
		"runtime.gc_pause_ms":  float64(after.pauseNS-before.pauseNS) / 1e6,
		"runtime.gc_cpu_pct":   pct,
		"runtime.heap_peak_mb": after.heapSysMB,
		"runtime.peak_rss_mb":  after.peakRSSMB,
	}
}

// spanMedianMS is the median duration of the probe's spans of a name.
func spanMedianMS(tr *tracer, name string) float64 {
	return median(spanValues(tr, name, span.ms))
}

func spanMedianAllocMB(tr *tracer, name string) float64 {
	return median(spanValues(tr, name, func(s span) float64 { return mb(float64(s.AllocBytes)) }))
}

func spanValues(tr *tracer, name string, f func(span) float64) []float64 {
	var out []float64
	for _, s := range tr.under(probeRoot, name) {
		out = append(out, f(s))
	}
	return out
}

// layerValues turns the probe's spans and facts into the per-layer
// metrics, apart from the runtime.* and driver.* ones, which describe the
// workload's own traced loop.
func layerValues(tr *tracer, host fingerprint, facts probeFacts, series []*codecSeries) map[string]float64 {
	ms := func(name string) float64 { return spanMedianMS(tr, name) }
	v := map[string]float64{
		"cluster.new_ms":                 ms("cluster.New"),
		"cluster.createpool_ms":          ms("cluster.CreatePool"),
		"cluster.bulkload_ms":            ms("cluster.BulkLoad"),
		"cluster.bulkload_alloc_mb":      spanMedianAllocMB(tr, "cluster.BulkLoad"),
		"cluster.freeze_ms":              ms("cluster.Snapshot"),
		"cluster.freeze_alloc_mb":        spanMedianAllocMB(tr, "cluster.Snapshot"),
		"cluster.fork_ms":                ms("cluster.Fork"),
		"cluster.schedule_ms":            ms("cluster.Schedule"),
		"cluster.runsim_ms":              ms("cluster.RunSim"),
		"cluster.runsim_alloc_mb":        spanMedianAllocMB(tr, "cluster.RunSim"),
		"cluster.object_repairs":         float64(facts.recovery.ObjectRepairs),
		"cluster.sim_recovery_s":         facts.recovery.SystemRecoveryTime().Seconds(),
		"cluster.sim_checking_frac":      facts.recovery.CheckingFraction(),
		"cluster.sim_network_gb":         float64(facts.recovery.NetworkBytes) / 1e9,
		"core.run_ms":                    ms("core.Run"),
		"core.populate_ms":               ms("core.Populate"),
		"core.snapshot_run_ms":           ms("core.Snapshot.Run"),
		"core.timeline_entries":          float64(facts.timelineEntries),
		"core.snapshot_live_mb":          facts.snapshotLiveMB,
		"experiments.fig2a_ms":           ms("experiments.Fig2aBackendCache"),
		"experiments.fig2b_ms":           ms("experiments.Fig2bPlacementGroups"),
		"experiments.fig2c_ms":           ms("experiments.Fig2cStripeUnit"),
		"experiments.fig2d_ms":           ms("experiments.Fig2dFailureMode"),
		"experiments.fig3_ms":            ms("experiments.Fig3Timeline"),
		"experiments.table3_ms":          ms("experiments.Table3WriteAmplification"),
		"experiments.wa_ms":              ms("experiments.WAFormulaValidation"),
		"experiments.plugins_ms":         ms("experiments.PluginComparison"),
		"experiments.cells":              float64(facts.campaign.snapHits + facts.campaign.snapMisses),
		"experiments.snapshot_hits":      float64(facts.campaign.snapHits),
		"experiments.snapshot_misses":    float64(facts.campaign.snapMisses),
		"experiments.snapshot_evictions": float64(facts.campaign.snapEvictions),
		"experiments.paper_mae":          facts.campaign.paperMAE,
		"codecache.hits":                 float64(facts.campaign.codeHits),
		"codecache.misses":               float64(facts.campaign.codeMisses),
		"report.render_ms":               ms("report.render"),
		"workload.objects_ms":            ms("workload.Objects"),
		"gf256.row_muladd_4KiB_MBps":     rowWidth * 4096 / 1e3 / ms("gf256.row_muladd.4KiB"),
		"gf256.row_muladd_64KiB_MBps":    rowWidth * 65536 / 1e3 / ms("gf256.row_muladd.64KiB"),
	}
	// Snapshot.Run is fork + fault/peering + event loop + what core adds
	// on top (log replay, iostat, log flush and merge); a cold Run is the
	// populate side + the recovery side + eager NVMe-oF provisioning.
	// Both probed profiles fail the same host of the same placement, so
	// they repair the same number of objects.
	v["cluster.runsim_us_per_repair"] = 1e3 * v["cluster.runsim_ms"] / v["cluster.object_repairs"]
	v["core.finish_self_ms"] = v["core.snapshot_run_ms"] - v["cluster.fork_ms"] - v["cluster.schedule_ms"] - v["cluster.runsim_ms"]
	v["core.coordinator_setup_ms"] = v["core.run_ms"] - v["core.populate_ms"] - v["core.snapshot_run_ms"]

	for name, mbps := range codecThroughput(series, func(s *codecSeries, op string) float64 { return ms("erasure." + s.key + "." + op) }) {
		v["erasure."+name] = mbps
	}
	// The program's self-chosen constants explain why two processes on one
	// host can differ: calibration is a microprobe.
	v["kernel.chunk_bytes"] = float64(host.ChunkBytes)
	v["kernel.parallel_threshold"] = float64(host.ParallelBytes)
	v["kernel.strided_threshold"] = float64(host.StridedBytes)
	v["parallel.workers"] = float64(host.Workers)
	v["parallel.kernel_workers"] = float64(host.KernelWorkers)
	return v
}

// sampleStats describes timed samples themselves: how many, how wide, how
// long the tail.
func sampleStats(samples []opSample) map[string]float64 {
	ms := sampleMS(samples)
	q1, q3 := quartiles(ms)
	pct, tailMS := tail(ms)
	return map[string]float64{
		"driver.samples":     float64(len(ms)),
		"driver.op_tail_ms":  tailMS,
		"driver.op_tail_pct": pct,
		"driver.op_iqr_ms":   q3 - q1,
	}
}
