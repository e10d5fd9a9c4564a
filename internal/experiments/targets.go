package experiments

import (
	"math"
	"sort"
)

// PaperTargets holds the values read from the paper's figures and tables,
// used to report paper-vs-measured deltas. Figure bars are normalized
// recovery times; where a bar is only approximately legible from the
// published figure the closest consistent reading is recorded (flagged in
// EXPERIMENTS.md).
type PaperTargets struct {
	Figures map[string]map[string]float64 // figID -> "config/code" -> value
	// Fig3CheckingFraction is §4.3's 53.7% headline.
	Fig3CheckingFraction float64
	// Fig3Range is the 41%..58% sweep.
	Fig3Range [2]float64
	// Table3 maps code labels to (actual WA, diff vs n/k).
	Table3 map[string][2]float64
}

// Targets returns the paper's published values.
func Targets() PaperTargets {
	return PaperTargets{
		Figures: map[string]map[string]float64{
			"fig2a": {
				"kv-optimized/RS(12,9)":        1.08,
				"kv-optimized/Clay(12,9,11)":   1.11,
				"data-optimized/RS(12,9)":      1.03,
				"data-optimized/Clay(12,9,11)": 1.05,
				"autotune/RS(12,9)":            1.00,
				"autotune/Clay(12,9,11)":       1.01,
			},
			"fig2b": {
				"1 PG/RS(12,9)":         1.22,
				"1 PG/Clay(12,9,11)":    1.35,
				"16 PGs/RS(12,9)":       1.04,
				"16 PGs/Clay(12,9,11)":  1.03,
				"256 PGs/RS(12,9)":      1.00,
				"256 PGs/Clay(12,9,11)": 1.02,
			},
			"fig2c": {
				"4KB/RS(12,9)":       1.00,
				"4KB/Clay(12,9,11)":  4.26,
				"4MB/RS(12,9)":       1.08,
				"4MB/Clay(12,9,11)":  1.12,
				"64MB/RS(12,9)":      3.29,
				"64MB/Clay(12,9,11)": 3.40, // "relatively high"; exact bar not legible
			},
			"fig2d": {
				"2 failures same host/RS(12,9)":        1.08,
				"2 failures same host/Clay(12,9,11)":   1.09,
				"2 failures diff. hosts/RS(12,9)":      1.12,
				"2 failures diff. hosts/Clay(12,9,11)": 1.14,
				"3 failures same host/RS(12,9)":        1.49,
				"3 failures same host/Clay(12,9,11)":   1.45,
				"3 failures diff. hosts/RS(12,9)":      1.51,
				"3 failures diff. hosts/Clay(12,9,11)": 1.55,
			},
		},
		Fig3CheckingFraction: 0.537,
		Fig3Range:            [2]float64{0.41, 0.58},
		Table3: map[string][2]float64{
			"RS(12,9)":  {1.76, 0.323},
			"RS(15,12)": {2.15, 0.720},
		},
	}
}

// Delta is one paper-vs-measured comparison point.
type Delta struct {
	Key      string
	Paper    float64
	Measured float64
}

// AbsErr is |measured - paper|.
func (d Delta) AbsErr() float64 { return math.Abs(d.Measured - d.Paper) }

// CompareFigure lines a measured figure up against the paper's bars,
// sorted by key so every rendering and every sum over them repeats. Bars
// the paper does not publish are skipped.
func CompareFigure(fig *Figure) []Delta {
	targets := Targets().Figures[fig.ID]
	var out []Delta
	for _, cell := range fig.Cells {
		for code, v := range cell.Values {
			key := cell.Config + "/" + code
			if paper, ok := targets[key]; ok {
				out = append(out, Delta{Key: key, Paper: paper, Measured: v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// MeanAbsErr averages the absolute errors of a comparison.
func MeanAbsErr(deltas []Delta) float64 {
	if len(deltas) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range deltas {
		sum += d.AbsErr()
	}
	return sum / float64(len(deltas))
}
