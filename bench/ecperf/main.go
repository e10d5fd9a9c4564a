// Command ecperf is the repository's benchmark: four named workloads, the
// end-to-end metrics a user of ecbench/ecfault/the codecs would see, and
// a per-layer budget taken from outside the program by timing calls into
// its exported functions. See bench/README.md and BENCHMARK.json.
//
//	ecperf -workload <campaign|single_run|fork_sweep|codec_stripe>
//	       [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//	ecperf -compare A/results.jsonl B/results.jsonl
//
// One process runs one workload as a closed loop with a single client
// goroutine; the only concurrency is what the program starts under its
// default budgets. The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; with -trace 0 the metrics
// are the end-to-end ones, with -trace 1 the per-layer ones. The full
// record — host fingerprint, seed, digests, failures — is appended to
// DIR/results.jsonl, and -trace 1 also writes DIR/spans-<workload>.json.
// An untraced run also starts itself twice more with -setup, one process
// at a time, to time the set-up from process start again.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// specFile is the benchmark's definition, at the root of the repository,
// which is where bench/ecperf.sh runs the driver.
const specFile = "BENCHMARK.json"

// record is everything one run produced; results.jsonl holds one per line.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	// Smoke marks a self-test run, whose numbers mean nothing.
	Smoke     bool              `json:"smoke,omitempty"`
	Host      fingerprint       `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Own holds the end-to-end metrics only this workload has (ownDefs).
	Own map[string]metric `json:"own,omitempty"`
	// SetupsS are the set-ups setup_s is the median of: this process's
	// first, then those of the child processes.
	SetupsS []float64 `json:"setups_s,omitempty"`
	// Driver qualifies an untraced run's timings (sample count, tail,
	// spread); the traced pass reports the same as driver.* metrics.
	Driver   map[string]float64 `json:"driver,omitempty"`
	Digests  map[string]string  `json:"digests"`
	Failures []string           `json:"failures,omitempty"`
	SpanFile string             `json:"span_file,omitempty"`
}

// result is the one line the benchmark contract asks for.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	processStart := time.Now()
	fs := flag.NewFlagSet("ecperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "workload to run: campaign, single_run, fork_sweep or codec_stripe")
	seed := fs.Int64("seed", 1, "seed for the generated inputs (grid order, stripe bytes, erased positions)")
	seconds := fs.Float64("seconds", 25, "length of the timed region")
	trace := fs.Int("trace", 0, "1 runs the traced pass: spans around every call, the layer probe, per-layer metrics")
	out := fs.String("out", "bench/out", "directory for results.jsonl and span files")
	compare := fs.Bool("compare", false, "compare two results.jsonl files given as arguments")
	smoke := fs.Bool("smoke", false, "shrink every workload 50-fold (self-test; the numbers mean nothing)")
	setupOnly := fs.Bool("setup", false, "set up, print the seconds since process start, exit: the driver runs itself so to repeat a set-up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "ecperf: "+format+"\n", a...) }

	if *compare {
		if fs.NArg() != 2 {
			logf("-compare needs two results.jsonl files")
			return 2
		}
		code, err := compareSets(stdout, specFile, fs.Arg(0), fs.Arg(1))
		if err != nil {
			logf("%v", err)
			return 2
		}
		return code
	}

	// No run may silently measure a non-default path or budget.
	if name := forbiddenEnv(); name != "" {
		logf("%s is set; the benchmark is defined on the program's defaults, unset it", name)
		return 2
	}
	w, err := newWorkload(*workloadName)
	if err != nil {
		logf("%v", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		logf("-seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := fullConfig(*seconds)
	if *smoke {
		cfg = smokeConfig()
	}

	rec := record{Workload: *workloadName, Seed: *seed, Seconds: cfg.seconds, Trace: *trace, Smoke: *smoke}
	r := newRun(cfg, *seed)
	switch {
	case *setupOnly:
		var took float64
		if took, err = timedSetUp(r, w, &rec, processStart); err == nil {
			fmt.Fprintln(stdout, took)
			return 0
		}
	case *trace == 1:
		rec.SpanFile = filepath.Join(*out, "spans-"+*workloadName+".json")
		err = runTraced(r, w, &rec)
	default:
		err = runUntraced(r, w, &rec, processStart, stderr)
	}
	if err != nil {
		logf("%s: %v", *workloadName, err)
		return 1
	}
	rec.Attempted, rec.Failed, rec.Failures, rec.Digests = r.attempted, r.failed, r.failures, r.digests
	rec.Correct = r.failed == 0
	for _, f := range r.failures {
		logf("failed op: %s", f)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	if rec.SpanFile != "" {
		if err := validateSpans(r.tr.spans); err != nil {
			logf("span log is malformed: %v", err)
			return 1
		}
		if err := writeSpans(rec.SpanFile, spanFile{Workload: rec.Workload, Seed: rec.Seed, Spans: r.tr.spans}); err != nil {
			logf("%v", err)
			return 1
		}
	}
	if err := appendRecord(filepath.Join(*out, "results.jsonl"), rec); err != nil {
		logf("%v", err)
		return 1
	}
	printReport(stderr, rec)
	line, err := json.Marshal(result{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// timedLoop repeats rounds until the budget is spent: it stops once half
// of another round would overshoot. before runs ahead of every round.
func timedLoop(r *run, w workload, seconds float64, before func(i int)) {
	start := time.Now()
	for i := 0; ; i++ {
		if before != nil {
			before(i)
		}
		roundStart := time.Now()
		w.round(r)
		round := time.Since(roundStart)
		if time.Since(start)+round/2 >= time.Duration(seconds*float64(time.Second)) {
			return
		}
	}
}

// timedSetUp is what setup_s times: everything between process start and
// the first timed operation, the program's one-time kernel calibration
// (which the fingerprint reads) and code construction included.
func timedSetUp(r *run, w workload, rec *record, processStart time.Time) (float64, error) {
	rec.Host = hostFingerprint()
	err := setUp(r, w)
	return time.Since(processStart).Seconds(), err
}

// setUpInChild repeats a run's set-up in a process of its own (-setup) and
// returns the seconds it took there. The program calibrates and builds
// its codes once per process, so only a fresh process pays what the first
// set-up paid.
func setUpInChild(stderr io.Writer, workload string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup", "-workload", workload, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = stderr
	out, err := cmd.Output() // returns once the child has ended
	if err != nil {
		return 0, fmt.Errorf("set-up in a child process: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// runUntraced measures the end-to-end metrics: this process's set-up, the
// timed region, then the set-up again in fresh processes, one at a time;
// setup_s is the median of them all.
func runUntraced(r *run, w workload, rec *record, processStart time.Time, stderr io.Writer) error {
	took, err := timedSetUp(r, w, rec, processStart)
	if err != nil {
		return err
	}
	setups := []float64{took}

	r.samples = nil
	attempted := r.attempted
	alloc := totalAlloc()
	timedLoop(r, w, r.cfg.seconds, nil)
	alloc = totalAlloc() - alloc
	ops := float64(r.attempted - attempted)

	busyMS := 0.0
	for _, s := range r.samples {
		busyMS += s.ms
	}
	rec.Driver = sampleStats(r.samples)
	if o, ok := w.(ownReporter); ok {
		if rec.Own, err = withUnits(ownMetricDefs(rec.Workload), o.own(r.samples)); err != nil {
			return err
		}
	}

	for len(setups) < r.cfg.setupReps {
		if took, err = setUpInChild(stderr, rec.Workload, rec.Seed); err != nil {
			return err
		}
		setups = append(setups, took)
	}
	rec.SetupsS = setups
	rec.Metrics, err = withUnits(endToEndDefs, map[string]float64{
		"setup_s":   median(setups),
		"op_p50_ms": w.p50(r.samples),
		// Mean-based on purpose: a stall inside any op lowers it.
		"ops_per_s":       float64(len(r.samples)) / (busyMS / 1e3),
		"alloc_mb_per_op": mb(float64(alloc)) / ops,
	})
	return err
}

// runTraced takes the per-layer metrics: the workload's own loop for half
// the budget, alternating rounds with spans on and off (their difference
// is the tracing overhead), then the layer probe, which is the same in
// every workload's traced pass.
func runTraced(r *run, w workload, rec *record) error {
	rec.Host = hostFingerprint()
	r.tr = newTracer()
	if err := setUp(r, w); err != nil {
		return err
	}

	// Rounds alternate between spans on and off; each round's samples go
	// to the side it ran on.
	var traced, untraced []opSample
	collect := func() {
		if r.tr.on {
			traced = append(traced, r.samples...)
		} else {
			untraced = append(untraced, r.samples...)
		}
		r.samples = nil
	}
	r.samples = nil
	rtBefore := readRuntime()
	timedLoop(r, w, r.cfg.seconds/2, func(i int) {
		collect()
		r.tr.on = i%2 == 0
	})
	collect()
	rtAfter := readRuntime()

	series, err := newCodecSeries(r.cfg, r.seed)
	if err != nil {
		return err
	}
	r.tr.on = true
	facts, err := probe(r, series)
	if err != nil {
		return err
	}

	values := layerValues(r.tr, rec.Host, facts, series)
	for _, part := range []map[string]float64{
		runtimeMetrics(rtBefore, rtAfter),
		sampleStats(append(traced, untraced...)),
	} {
		for name, v := range part {
			values[name] = v
		}
	}
	// A loop too short for a span-off round has no overhead to report.
	values["driver.trace_overhead_pct"] = 0
	if base := w.p50(untraced); base > 0 {
		values["driver.trace_overhead_pct"] = 100 * (w.p50(traced) - base) / base
	}
	rec.Metrics, err = withUnits(layerDefs(), values)
	return err
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printReport writes the human-readable form of a record to w (standard
// error in a run, so the contract's JSON line stays last on stdout).
func printReport(w io.Writer, rec record) {
	h := rec.Host
	fmt.Fprintf(w, "workload %s  seed %d  trace %d  commit %s\n", rec.Workload, rec.Seed, rec.Trace, h.Commit)
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s, gf256 %s %v, features %v\n",
		h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Backend, h.Backends, h.CPUFeatures)
	fmt.Fprintf(w, "tuning: chunk %d, parallel %d, strided %d; workers %d, kernel workers %d\n",
		h.ChunkBytes, h.ParallelBytes, h.StridedBytes, h.Workers, h.KernelWorkers)
	defs := endToEndDefs
	if rec.Trace == 1 {
		defs = layerDefs()
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-44s %14.4f %s\n", d.name, rec.Metrics[d.name].Value, d.unit)
	}
	for _, d := range ownMetricDefs(rec.Workload) {
		if m, ok := rec.Own[d.name]; ok {
			fmt.Fprintf(w, "  %-44s %14.4f %s\n", d.name, m.Value, d.unit)
		}
	}
	if d := rec.Driver; d != nil {
		fmt.Fprintf(w, "  %.0f timed samples, interquartile range %.4f ms, p%.0f %.4f ms\n",
			d["driver.samples"], d["driver.op_iqr_ms"], d["driver.op_tail_pct"], d["driver.op_tail_ms"])
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d, distinct cells %d\n", rec.Attempted, rec.Failed, len(rec.Digests))
	if rec.SpanFile != "" {
		fmt.Fprintf(w, "spans written to %s\n", rec.SpanFile)
	}
}
