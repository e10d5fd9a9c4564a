package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json the driver reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// resultSet is the untraced runs of one results.jsonl file: one commit,
// one host, one run length.
type resultSet struct {
	seconds float64
	commit  string
	host    string
	// values holds, per workload and metric (the common end-to-end ones
	// and the workload's own), one value per run.
	values map[string]map[string][]float64
}

// readSet loads a results.jsonl file. It refuses a file that mixes run
// lengths, commits or hosts, holds a self-test run or a run with failed
// operations: medians over such records would compare nothing.
func readSet(path string) (resultSet, error) {
	set := resultSet{values: map[string]map[string][]float64{}}
	f, err := os.Open(path)
	if err != nil {
		return set, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	runs := 0
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return set, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		at := fmt.Sprintf("%s:%d: %s seed %d", path, line, rec.Workload, rec.Seed)
		if rec.Smoke {
			return set, fmt.Errorf("%s is a -smoke run", at)
		}
		if runs++; runs == 1 {
			set.seconds, set.commit, set.host = rec.Seconds, rec.Host.Commit, rec.Host.shape()
		}
		if rec.Seconds != set.seconds || rec.Host.Commit != set.commit || rec.Host.shape() != set.host {
			return set, fmt.Errorf("%s ran %v s at commit %s on [%s], earlier records %v s at %s on [%s]",
				at, rec.Seconds, rec.Host.Commit, rec.Host.shape(), set.seconds, set.commit, set.host)
		}
		if rec.Trace != 0 {
			continue
		}
		if !rec.Correct {
			return set, fmt.Errorf("%s had %d failed ops of %d", at, rec.Failed, rec.Attempted)
		}
		if set.values[rec.Workload] == nil {
			set.values[rec.Workload] = map[string][]float64{}
		}
		for _, metrics := range []map[string]metric{rec.Metrics, rec.Own} {
			for name, m := range metrics {
				set.values[rec.Workload][name] = append(set.values[rec.Workload][name], m.Value)
			}
		}
	}
	return set, sc.Err()
}

// compareSets prints, per workload x end-to-end metric — the common ones
// of BENCHMARK.json, then the workload's own — both sets' medians, the
// ratio B/A, the bound and a verdict:
//
//	ok          B's median is no worse than A's by more than the bound
//	worse       it is worse by more than the bound
//	unresolved  either set's own spread (interquartile distance over
//	            median) is wider than the bound, so the pair decides nothing
//
// It returns 1 if any pair is worse or unresolved. Comparing two sets of
// the same commit is the benchmark's stability check; comparing a parent
// and a change is how a later PR shows it broke nothing. The two sets
// must come from the same host with the same run length.
func compareSets(w io.Writer, specPath, pathA, pathB string) (int, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return 0, err
	}
	a, err := readSet(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return 0, err
	}
	if a.seconds != b.seconds || a.host != b.host {
		return 0, fmt.Errorf("A ran %v s on [%s], B %v s on [%s]: not comparable", a.seconds, a.host, b.seconds, b.host)
	}
	fmt.Fprintf(w, "A = %s (commit %s)\nB = %s (commit %s)\n%v s runs on %s\n", pathA, a.commit, pathB, b.commit, a.seconds, a.host)
	fmt.Fprintf(w, "%-13s %-32s %5s %12s %12s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "runs", "A median", "B median", "B/A", "spread A", "spread B", "bound", "verdict")
	code := 0
	for _, wl := range spec.Workloads {
		var rows []ownDef
		for _, m := range spec.EndToEnd {
			rows = append(rows, ownDef{metricDef{m.Name, m.Unit}, m.Better, m.Bound, false})
		}
		for _, m := range append(rows, ownDefs[wl.Name]...) {
			va, vb := a.values[wl.Name][m.name], b.values[wl.Name][m.name]
			if len(va) == 0 || len(vb) == 0 {
				return 0, fmt.Errorf("%s/%s: %d runs in A, %d in B", wl.Name, m.name, len(va), len(vb))
			}
			medA, medB := median(va), median(vb)
			// An absolute bound is compared with differences, a relative
			// one with shares of A's median.
			base, spreadA, spreadB, bound := medA, spread(va), spread(vb), fmt.Sprintf("%.0f%%", 100*m.bound)
			if m.absolute {
				base, spreadA, spreadB, bound = 1, spread(va)*medA, spread(vb)*medB, fmt.Sprint(m.bound)
			}
			worse := (medB - medA) / base // positive = B worse, for "lower is better"
			if m.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case spreadA > m.bound || spreadB > m.bound:
				verdict = "unresolved"
			case worse > m.bound:
				verdict = "worse"
			}
			if verdict != "ok" {
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-32s %2d/%-2d %12.4f %12.4f %9.4f %7.2f%% %7.2f%% %6s  %s\n",
				wl.Name, m.name, len(va), len(vb), medA, medB, medB/medA, 100*spread(va), 100*spread(vb), bound, verdict)
		}
	}
	return code, nil
}
