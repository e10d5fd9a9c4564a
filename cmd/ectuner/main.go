// Command ectuner searches erasure-coding configurations automatically —
// the §6 follow-up the paper proposes. It evaluates a space of plugin /
// pg_num / stripe_unit / cache-scheme combinations on the simulated
// cluster and ranks them by the chosen objective.
//
// Usage:
//
//	ectuner [-objective balanced|min-recovery-time|min-write-amplification|max-durability]
//	        [-greedy] [-scale N] [-workers N] [-top K] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/tuner"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is main's body, writing to stdout and returning its error.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ectuner", flag.ExitOnError)
	objective := fs.String("objective", "balanced", "min-recovery-time | min-write-amplification | max-durability | balanced")
	greedy := fs.Bool("greedy", false, "coordinate descent instead of full grid")
	scale := fs.Int("scale", 50, "workload scale divisor")
	workers := fs.Int("workers", 0, "concurrent candidate evaluations (0 = ECFAULT_WORKERS or NumCPU)")
	top := fs.Int("top", 10, "ranked candidates to print")
	jsonOut := fs.Bool("json", false, "emit results as JSON")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits inside Parse
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}
	if *top < 1 {
		return fmt.Errorf("ectuner: -top must be at least 1, got %d", *top)
	}
	if *scale < 1 {
		return fmt.Errorf("ectuner: -scale must be at least 1, got %d", *scale)
	}

	obj, err := parseObjective(*objective)
	if err != nil {
		return err
	}
	base := core.DefaultProfile().ScaleWorkload(*scale)
	space := tuner.Space{
		Plugins: []tuner.PluginChoice{
			{Plugin: "jerasure_reed_sol_van", K: 9, M: 3},
			{Plugin: "clay", K: 9, M: 3, D: 11},
			{Plugin: "lrc", K: 9, M: 3, D: 3},
			{Plugin: "shec", K: 9, M: 5, D: 3},
		},
		PGNums:       []int{16, 64, 256},
		StripeUnits:  []int64{64 << 10, 1 << 20, 4 << 20},
		CacheSchemes: []string{core.SchemeAutotune, core.SchemeDataOptimized, core.SchemeKVOptimized},
	}

	if *greedy {
		best, runs, err := tuner.GreedySearch(base, space, obj)
		if err != nil {
			return err
		}
		if *jsonOut {
			return emitJSON(stdout, map[string]any{"evaluations": runs, "best": candidateView(best)})
		}
		fmt.Fprintf(stdout, "greedy search (%s): %d evaluations\n", obj, runs)
		printCandidate(stdout, 1, best)
		return nil
	}

	ranked, err := tuner.GridSearch(base, space, obj)
	if err != nil {
		return err
	}
	if *jsonOut {
		views := make([]map[string]any, 0, len(ranked))
		for _, c := range ranked {
			views = append(views, candidateView(c))
		}
		return emitJSON(stdout, map[string]any{"objective": obj.String(), "candidates": views})
	}
	fmt.Fprintf(stdout, "grid search (%s): %d candidates\n", obj, len(ranked))
	fmt.Fprintln(stdout, "rank  score   recovery      WA   nines  configuration")
	for i, c := range ranked {
		if i >= *top {
			fmt.Fprintf(stdout, "      ... %d more\n", len(ranked)-*top)
			break
		}
		printCandidate(stdout, i+1, c)
	}
	return nil
}

func parseObjective(s string) (tuner.Objective, error) {
	switch s {
	case "min-recovery-time":
		return tuner.MinRecoveryTime, nil
	case "min-write-amplification":
		return tuner.MinWriteAmplification, nil
	case "max-durability":
		return tuner.MaxDurability, nil
	case "balanced":
		return tuner.Balanced, nil
	}
	return 0, fmt.Errorf("ectuner: unknown objective %q", s)
}

func printCandidate(w io.Writer, rank int, c tuner.Candidate) {
	if c.Err != nil {
		fmt.Fprintf(w, "%4d      —          —       —       —  %s (failed: %v)\n", rank, c.Describe(), c.Err)
		return
	}
	fmt.Fprintf(w, "%4d  %5.2f  %7.1fs  %6.3f  %6.1f  %s\n",
		rank, c.Score, c.RecoveryTime.Seconds(), c.WA, c.DurabilityNines, c.Describe())
}

func candidateView(c tuner.Candidate) map[string]any {
	v := map[string]any{
		"configuration": c.Describe(),
		"score":         c.Score,
	}
	if c.Err != nil {
		v["error"] = c.Err.Error()
		return v
	}
	v["recovery_seconds"] = c.RecoveryTime.Seconds()
	v["write_amplification"] = c.WA
	v["durability_nines"] = c.DurabilityNines
	return v
}

func emitJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
