package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

const specPath = "../../BENCHMARK.json"

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecAgreesWithDriver pins BENCHMARK.json to the driver: the same
// workloads, the same metric names and units, and bounds inside the
// contract's limits.
func TestSpecAgreesWithDriver(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("workloads: BENCHMARK.json has %q, the driver %q", got, want)
	}
	check := func(kind string, declared []specMetric, defs []metricDef) {
		t.Helper()
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the driver reports %d", kind, len(declared), len(defs))
		}
		units := map[string]string{}
		for _, d := range defs {
			units[d.name] = d.unit
		}
		for _, m := range declared {
			if !metricName.MatchString(m.Name) {
				t.Errorf("%s: name %q is outside the contract", kind, m.Name)
			}
			if unit, ok := units[m.Name]; !ok {
				t.Errorf("%s: %s is declared but the driver does not report it", kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the driver", kind, m.Name, m.Unit, unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s has better = %q", kind, m.Name, m.Better)
			}
			delete(units, m.Name)
		}
		for name := range units {
			t.Errorf("%s: the driver reports %s, BENCHMARK.json does not declare it", kind, name)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, layerDefs())
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
}

// TestSmoke walks every workload, untraced and traced, at 1/50 size and
// checks the shape of what comes out: the contract's result line with
// exactly the declared metrics, all finite, no failed op, and a span file
// in which every child lies inside its parent.
func TestSmoke(t *testing.T) {
	if name := forbiddenEnv(); name != "" {
		t.Skipf("%s is set; the driver refuses to run", name)
	}
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, w := range workloadNames() {
		for trace, declared := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-smoke", "-workload", w, "-seed", "7", "-trace", string(rune('0' + trace)), "-out", out}
			if code := realMain(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s -trace %d exited %d:\n%s", w, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
				t.Fatalf("%s -trace %d: last line is not JSON: %v", w, trace, err)
			}
			if len(raw) != 4 {
				t.Errorf("%s -trace %d: result has %d keys, want correct, attempted, failed, metrics", w, trace, len(raw))
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s -trace %d: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s -trace %d: %d metrics, BENCHMARK.json declares %d", w, trace, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s -trace %d: %s is missing", w, trace, d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s -trace %d: %s = %v", w, trace, d.Name, m.Value)
				case m.Unit != d.Unit:
					t.Errorf("%s -trace %d: %s has unit %q, want %q", w, trace, d.Name, m.Unit, d.Unit)
				case trace == 0 && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, d.Name, m.Value)
				}
			}
		}

		data, err := os.ReadFile(filepath.Join(out, "spans-"+w+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var sf spanFile
		if err := json.Unmarshal(data, &sf); err != nil {
			t.Fatalf("%s: span file does not parse: %v", w, err)
		}
		if len(sf.Spans) == 0 {
			t.Errorf("%s: span file is empty", w)
		}
		if err := validateSpans(sf.Spans); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}

	// The untraced records carry each workload's own metrics, and are
	// marked so that no comparison ever takes them for measurements.
	results := filepath.Join(out, "results.jsonl")
	data, err := os.ReadFile(results)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if !rec.Smoke {
			t.Errorf("%s -trace %d: record is not marked as a smoke run", rec.Workload, rec.Trace)
		}
		if rec.Trace == 1 {
			continue
		}
		if len(rec.Own) != len(ownDefs[rec.Workload]) {
			t.Errorf("%s: %d own metrics, want %d", rec.Workload, len(rec.Own), len(ownDefs[rec.Workload]))
		}
		for _, d := range ownDefs[rec.Workload] {
			if m := rec.Own[d.name]; !(m.Value > 0) || math.IsInf(m.Value, 0) || m.Unit != d.unit || !metricName.MatchString(d.name) {
				t.Errorf("%s: own metric %s = %v %q", rec.Workload, d.name, m.Value, m.Unit)
			}
		}
	}
	if _, err := readSet(results); err == nil || !strings.Contains(err.Error(), "-smoke") {
		t.Errorf("readSet accepted smoke records: %v", err)
	}
}

// TestPayloadGateFires: a run whose bytes did not read back must abort
// set-up.
func TestPayloadGateFires(t *testing.T) {
	recovered := &cluster.RecoveryResult{FinishedAt: 1, ObjectRepairs: 16}
	err := payloadGate(func(core.Profile) (*core.Result, error) {
		return &core.Result{Recovery: recovered, PayloadVerified: false, PayloadErrors: 3}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "read back wrong") {
		t.Errorf("gate passed a run with PayloadVerified=false: %v", err)
	}
	err = payloadGate(func(core.Profile) (*core.Result, error) {
		return &core.Result{Recovery: recovered, PayloadVerified: true}, nil
	})
	if err != nil {
		t.Errorf("gate refused a verified run: %v", err)
	}
}

// TestDigestCheckFires: an op whose simulated statistics differ from the
// cell's recorded digest is a failed op.
func TestDigestCheckFires(t *testing.T) {
	r := newRun(smokeConfig(), 1)
	w := &singleRun{}
	w.round(r)
	if r.failed != 0 || r.attempted != 2 {
		t.Fatalf("clean round: attempted %d, failed %d", r.attempted, r.failed)
	}
	r.digests[singleRunProfiles(1)[0].Name] = "corrupted-expectation"
	w.round(r)
	if r.failed != 1 || r.attempted != 4 {
		t.Errorf("after corrupting one cell's expectation: attempted %d, failed %d, want 4 and 1", r.attempted, r.failed)
	}
	if len(r.failures) != 1 || !strings.Contains(r.failures[0], "differs") {
		t.Errorf("failures = %q", r.failures)
	}
}

func TestValidateSpans(t *testing.T) {
	good := []span{
		{ID: 1, Name: "op", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "core.Run", StartNS: 10, EndNS: 90},
	}
	if err := validateSpans(good); err != nil {
		t.Errorf("well-formed spans rejected: %v", err)
	}
	for name, bad := range map[string][]span{
		"child outlives parent": {good[0], {ID: 2, Parent: 1, Name: "x", StartNS: 10, EndNS: 101}},
		"parent after child":    {{ID: 1, Parent: 2, Name: "x"}, {ID: 2, Name: "y"}},
		"ends before start":     {{ID: 1, Name: "x", StartNS: 5, EndNS: 4}},
		"other op than parent":  {good[0], {ID: 2, Parent: 1, Op: 1, Name: "x", StartNS: 10, EndNS: 20}},
	} {
		if validateSpans(bad) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// which the acceptance check of the benchmark uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v, %v; Python gives 1, 3", q1, q3)
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{240: 95, 720: 98, 12: 0} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		pct, v := tail(xs)
		if pct != want {
			t.Errorf("tail of %d samples is p%v, want p%v", n, pct, want)
		}
		if beyond := float64(n) - v; want != 0 && beyond < 10 {
			t.Errorf("tail of %d samples leaves %v beyond it", n, beyond)
		}
	}
}

// TestCompareVerdicts feeds -compare synthetic pairs of sets: equal, a
// common metric worse than its bound, a workload's own metric worse, one
// set too scattered to decide, and sets that must be refused.
func TestCompareVerdicts(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// writeSet writes three runs per workload of 100 for every metric;
	// edit changes a run's record, i being -1, 0 or 1.
	writeSet := func(name string, edit func(rec *record, i int)) string {
		path := filepath.Join(dir, name)
		for _, w := range workloadNames() {
			for i := -1; i <= 1; i++ {
				rec := record{Workload: w, Seconds: 25, Correct: true, Attempted: 1, Metrics: map[string]metric{}, Own: map[string]metric{}}
				for _, m := range spec.EndToEnd {
					rec.Metrics[m.Name] = metric{Value: 100, Unit: m.Unit}
				}
				for _, d := range ownDefs[w] {
					rec.Own[d.name] = metric{Value: 100, Unit: d.unit}
				}
				edit(&rec, i)
				if err := appendRecord(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	p50 := func(scale, scatter float64) func(*record, int) {
		return func(rec *record, i int) {
			rec.Metrics["op_p50_ms"] = metric{Value: 100 * scale * (1 + scatter*float64(i)), Unit: "ms"}
		}
	}
	base := writeSet("base.jsonl", p50(1, 0.01))
	for _, tc := range []struct {
		name    string
		other   string
		code    int
		verdict string
	}{
		{"same", writeSet("same.jsonl", p50(1.02, 0.01)), 0, "ok"},
		{"slower", writeSet("slower.jsonl", p50(1.5, 0.01)), 1, "worse"},
		{"scattered", writeSet("scattered.jsonl", p50(1, 0.4)), 1, "unresolved"},
		{"repair halved", writeSet("repair.jsonl", func(rec *record, _ int) {
			if rec.Workload == "codec_stripe" {
				rec.Own["repair_large_MBps"] = metric{Value: 50, Unit: "MB/s"}
			}
		}), 1, "worse"},
		{"figures moved", writeSet("figures.jsonl", func(rec *record, _ int) {
			if rec.Workload == "campaign" {
				rec.Own["paper_mae"] = metric{Value: 100.01, Unit: "abs"}
			}
		}), 1, "worse"},
	} {
		var out bytes.Buffer
		code, err := compareSets(&out, specPath, base, tc.other)
		if err != nil {
			t.Fatal(err)
		}
		if code != tc.code || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: exit %d, want %d and a %q row:\n%s", tc.name, code, tc.code, tc.verdict, out.String())
		}
	}
	for name, other := range map[string]string{
		"shorter runs": writeSet("short.jsonl", func(rec *record, _ int) { rec.Seconds = 10 }),
		"mixed commits": writeSet("mixed.jsonl", func(rec *record, i int) {
			if i == 1 {
				rec.Host.Commit = "abc1234"
			}
		}),
		"another host": writeSet("host.jsonl", func(rec *record, _ int) { rec.Host.NProc = 64 }),
		"failed op":    writeSet("failed.jsonl", func(rec *record, _ int) { rec.Correct = false }),
	} {
		if _, err := compareSets(io.Discard, specPath, base, other); err == nil {
			t.Errorf("%s: compared without complaint", name)
		}
	}
}
