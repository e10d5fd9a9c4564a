// Command ecbench regenerates every table and figure of the paper's
// evaluation section and prints them in the paper's format.
//
// Usage:
//
//	ecbench [-scale N] [-workers N] [-only fig2a,fig2b,fig2c,fig2d,fig3,table3,wa,plugins]
//
// Scale divides the 10,000-object workload; the normalized shapes are
// stable across scales, so -scale 20 gives a fast faithful run.
// Independent experiment cells run concurrently; -workers (or the
// ECFAULT_WORKERS environment variable) bounds the pool, with -workers 1
// forcing the serial order.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"repro/internal/erasure/kernel"
	"repro/internal/experiments"
	"repro/internal/gf256"
	"repro/internal/parallel"
	"repro/internal/profutil"
	"repro/internal/report"
)

// parseOnly turns the -only value into the ids to run; an empty value
// selects every id.
func parseOnly(only string) ([]string, error) {
	if only == "" {
		return experiments.ArtifactIDs, nil
	}
	ids := strings.Split(only, ",")
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
		if !slices.Contains(experiments.ArtifactIDs, ids[i]) {
			return nil, fmt.Errorf("ecbench: -only: unknown id %q (valid: %s)", ids[i], strings.Join(experiments.ArtifactIDs, ","))
		}
	}
	return ids, nil
}

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is main's body: it returns instead of exiting, so the deferred
// profile stop also runs when a figure fails.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("ecbench", flag.ExitOnError)
	scale := fs.Int("scale", 10, "divide the paper workload by this factor")
	workers := fs.Int("workers", 0, "concurrent experiment cells (0 = ECFAULT_WORKERS or NumCPU)")
	only := fs.String("only", "", "comma-separated subset: "+strings.Join(experiments.ArtifactIDs, ","))
	bars := fs.Bool("bars", false, "render figures as ASCII bar charts")
	compare := fs.Bool("compare", false, "append paper-vs-measured deltas to each figure")
	jsonOut := fs.Bool("json", false, "emit all results as JSON instead of text")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	backends := fs.Bool("backends", false, "print the active GF(2^8) backend, the dispatch chain, and CPU features, then exit")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits inside Parse
	if *scale < 1 {
		return fmt.Errorf("ecbench: -scale must be at least 1, got %d", *scale)
	}
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}
	if *backends {
		fmt.Fprintf(stdout, "backend: %s\n", gf256.Backend())
		fmt.Fprintf(stdout, "available: %s\n", strings.Join(gf256.Backends(), " "))
		fmt.Fprintf(stdout, "cpu_features: %s\n", strings.Join(gf256.CPUFeatures(), " "))
		chunk, parThresh, _ := kernel.Tuning()
		fmt.Fprintf(stdout, "tuning: chunk_bytes=%d parallel_threshold=%d workers=%d\n",
			chunk, parThresh, parallel.Workers())
		return nil
	}
	ids, err := parseOnly(*only)
	if err != nil {
		return err
	}

	stopProf, err := profutil.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProf()) }()

	arts, err := experiments.Run(*scale, ids...)
	if err != nil {
		return err
	}
	if *jsonOut {
		if arts.Fig3 != nil {
			arts.Fig3.Events = nil // keep the JSON compact
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(arts)
	}
	for _, fig := range []*experiments.Figure{arts.Fig2a, arts.Fig2b, arts.Fig2c, arts.Fig2d} {
		if fig == nil {
			continue
		}
		if *bars {
			fmt.Fprintln(stdout, report.FigureBars(fig))
		} else {
			fmt.Fprintln(stdout, report.Figure(fig))
		}
		if *compare {
			if cmp := report.Comparison(fig); cmp != "" {
				fmt.Fprintln(stdout, cmp)
			}
		}
	}
	if tl := arts.Fig3; tl != nil {
		fmt.Fprintln(stdout, report.Timeline(tl))
		fmt.Fprintln(stdout, report.TimelineEvents(tl.Events, tl.Events[0].Time))
	}
	if arts.Table3 != nil {
		fmt.Fprintln(stdout, report.Table3(arts.Table3))
	}
	if arts.WA != nil {
		fmt.Fprintln(stdout, report.WAValidation(arts.WA))
	}
	if arts.Plugins != nil {
		fmt.Fprintln(stdout, report.Plugins(arts.Plugins))
	}
	return nil
}
