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

// figureIDs are the ids -only accepts, in output order.
var figureIDs = []string{"fig2a", "fig2b", "fig2c", "fig2d", "fig3", "table3", "wa", "plugins"}

// parseOnly turns the -only value into the set of ids to run; an empty
// value selects every id.
func parseOnly(only string) (map[string]bool, error) {
	ids := figureIDs
	if only != "" {
		ids = strings.Split(only, ",")
	}
	want := map[string]bool{}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if !slices.Contains(figureIDs, id) {
			return nil, fmt.Errorf("ecbench: -only: unknown id %q (valid: %s)", id, strings.Join(figureIDs, ","))
		}
		want[id] = true
	}
	return want, nil
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
	only := fs.String("only", "", "comma-separated subset: "+strings.Join(figureIDs, ","))
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
	want, err := parseOnly(*only)
	if err != nil {
		return err
	}

	stopProf, err := profutil.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProf()) }()

	var collected = map[string]any{}
	emitFigure := func(fig *experiments.Figure) {
		if *jsonOut {
			collected[fig.ID] = fig
			return
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

	for _, f := range []struct {
		id string
		fn func(scale int) (*experiments.Figure, error)
	}{
		{"fig2a", experiments.Fig2aBackendCache},
		{"fig2b", experiments.Fig2bPlacementGroups},
		{"fig2c", experiments.Fig2cStripeUnit},
		{"fig2d", experiments.Fig2dFailureMode},
	} {
		if !want[f.id] {
			continue
		}
		fig, err := f.fn(*scale)
		if err != nil {
			return err
		}
		emitFigure(fig)
	}
	if want["fig3"] {
		tl, err := experiments.Fig3Timeline(*scale)
		if err != nil {
			return err
		}
		if *jsonOut {
			tl.Events = nil // keep the JSON compact
			collected["fig3"] = tl
		} else {
			fmt.Fprintln(stdout, report.Timeline(tl))
			fmt.Fprintln(stdout, report.TimelineEvents(tl.Events, tl.Events[0].Time))
		}
	}
	if want["table3"] {
		rows, err := experiments.Table3WriteAmplification(*scale)
		if err != nil {
			return err
		}
		if *jsonOut {
			collected["table3"] = rows
		} else {
			fmt.Fprintln(stdout, report.Table3(rows))
		}
	}
	if want["wa"] {
		rows, err := experiments.WAFormulaValidation(*scale)
		if err != nil {
			return err
		}
		if *jsonOut {
			collected["wa_validation"] = rows
		} else {
			fmt.Fprintln(stdout, report.WAValidation(rows))
		}
	}
	if want["plugins"] {
		rows, err := experiments.PluginComparison(*scale)
		if err != nil {
			return err
		}
		if *jsonOut {
			collected["plugins"] = rows
		} else {
			fmt.Fprintln(stdout, report.Plugins(rows))
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(collected)
	}
	return nil
}
