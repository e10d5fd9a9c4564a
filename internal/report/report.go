// Package report renders experiment results as the tables and bar series
// the paper presents, in plain text suitable for terminals and logs.
package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/logsys"
	"repro/internal/wamodel"
)

// Figure renders a Figure-2-style normalized bar table.
func Figure(fig *experiments.Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", fig.ID, fig.Title)
	fmt.Fprintf(&b, "(normalized recovery time; baseline %.1fs)\n", fig.Baseline.Seconds())

	codes := codeOrder(fig)
	w := 0
	for _, c := range fig.Cells {
		if len(c.Config) > w {
			w = len(c.Config)
		}
	}
	fmt.Fprintf(&b, "  %-*s", w, "config")
	for _, code := range codes {
		fmt.Fprintf(&b, "  %14s", code)
	}
	b.WriteString("\n")
	for _, c := range fig.Cells {
		fmt.Fprintf(&b, "  %-*s", w, c.Config)
		for _, code := range codes {
			fmt.Fprintf(&b, "  %14.2f", c.Values[code])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func codeOrder(fig *experiments.Figure) []string {
	seen := map[string]bool{}
	var codes []string
	for _, c := range fig.Cells {
		for code := range c.Values {
			if !seen[code] {
				seen[code] = true
				codes = append(codes, code)
			}
		}
	}
	sort.Slice(codes, func(i, j int) bool {
		// RS before Clay, then lexical.
		ri, rj := strings.HasPrefix(codes[i], "RS"), strings.HasPrefix(codes[j], "RS")
		if ri != rj {
			return ri
		}
		return codes[i] < codes[j]
	})
	return codes
}

// FigureBars renders a figure as horizontal ASCII bars, one row per
// (config, code), scaled so the largest value spans barWidth cells.
func FigureBars(fig *experiments.Figure) string {
	const barWidth = 40
	codes := codeOrder(fig)
	maxV := 0.0
	labelW := 0
	for _, c := range fig.Cells {
		for _, code := range codes {
			if v := c.Values[code]; v > maxV {
				maxV = v
			}
			if l := len(c.Config) + len(code) + 1; l > labelW {
				labelW = l
			}
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", fig.ID, fig.Title)
	for _, c := range fig.Cells {
		for _, code := range codes {
			v := c.Values[code]
			n := int(v / maxV * barWidth)
			if n < 1 && v > 0 {
				n = 1
			}
			fmt.Fprintf(&b, "  %-*s %s %.2f\n", labelW, c.Config+" "+code, strings.Repeat("█", n), v)
		}
	}
	return b.String()
}

// Timeline renders the Figure 3 recovery anatomy.
func Timeline(tl *experiments.TimelineResult) string {
	var b strings.Builder
	b.WriteString("fig3 — Timeline of System Recovery\n")
	fmt.Fprintf(&b, "  failure detected      %8.0fs\n", 0.0)
	fmt.Fprintf(&b, "  EC recovery started   %8.0fs\n", tl.RecoveryStarted.Seconds())
	fmt.Fprintf(&b, "  EC recovery finished  %8.0fs\n", tl.RecoveryFinished.Seconds())
	fmt.Fprintf(&b, "  system checking period: %.1f%% of system recovery time\n", tl.CheckingFraction*100)
	fmt.Fprintf(&b, "  checking fraction across workload sizes: %.0f%% to %.0f%%\n",
		tl.FractionRange[0]*100, tl.FractionRange[1]*100)
	return b.String()
}

// TimelineEvents renders the line that opens each Figure 3 phase, at
// its offset from origin.
func TimelineEvents(entries []logsys.Entry, origin time.Duration) string {
	var b strings.Builder
	for _, ph := range experiments.Phases(entries) {
		fmt.Fprintf(&b, "  %8.0fs  %s\n", (ph.Time - origin).Seconds(), ph.Label)
	}
	return b.String()
}

// Table3 renders the write-amplification table.
func Table3(rows []experiments.WARow) string {
	var b strings.Builder
	b.WriteString("table3 — Write amplification of RS codes\n")
	b.WriteString("  ID            Code(n,k)    n/k    Actual WA Factor    Diff.%\n")
	for _, r := range rows {
		rep := r.Report
		fmt.Fprintf(&b, "  %-12s  RS(%d,%d)%s  %5.2f  %18.2f  %+7.1f%%\n",
			strings.Fields(r.ID)[0], rep.N, rep.K, pad(rep.N, rep.K), rep.Theoretical, rep.Measured, rep.DiffVsTheory*100)
	}
	return b.String()
}

func pad(n, k int) string {
	if n >= 10 && k >= 10 {
		return ""
	}
	if n >= 10 || k >= 10 {
		return " "
	}
	return "  "
}

// WAValidation renders the formula-validation sweep.
func WAValidation(rows []experiments.WAValidationRow) string {
	var b strings.Builder
	b.WriteString("§4.4 — WA formula validation (measured must be >= formula bound)\n")
	b.WriteString("  object      (n,k)     stripe_unit   formula   measured   holds\n")
	violations := 0
	for _, r := range rows {
		ok := "yes"
		if !r.Holds {
			ok = "NO"
			violations++
		}
		fmt.Fprintf(&b, "  %8s  RS(%2d,%2d)  %10s  %8.3f  %9.3f   %s\n",
			size(r.ObjectSize), r.K+r.M, r.K, size(r.StripeUnit), r.Formula, r.Measured, ok)
	}
	fmt.Fprintf(&b, "  %d points, %d violations\n", len(rows), violations)
	return b.String()
}

// Comparison renders paper-vs-measured deltas for a figure.
func Comparison(fig *experiments.Figure) string {
	deltas := experiments.CompareFigure(fig)
	if len(deltas) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s vs paper (mean abs err %.2f):\n", fig.ID, experiments.MeanAbsErr(deltas))
	w := 0
	for _, d := range deltas {
		if len(d.Key) > w {
			w = len(d.Key)
		}
	}
	for _, d := range deltas {
		fmt.Fprintf(&b, "  %-*s  paper %5.2f  measured %5.2f  (Δ %+5.2f)\n",
			w, d.Key, d.Paper, d.Measured, d.Measured-d.Paper)
	}
	return b.String()
}

// Plugins renders the cross-plugin comparison table.
func Plugins(rows []experiments.PluginRow) string {
	var b strings.Builder
	b.WriteString("plugins — single OSD-host failure across EC plugins (extension)\n")
	b.WriteString("  code            recovery   checking%   net/chunk   actual WA   durability\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s  %7.1fs  %9.1f%%  %9.2fx  %10.3f  %8.1f 9s\n",
			r.Label, r.RecoveryTime.Seconds(), r.CheckingPercent, r.NetPerChunk, r.ActualWA, r.DurabilityNines)
	}
	return b.String()
}

// WAReport renders a single wamodel comparison.
func WAReport(rep wamodel.Report) string {
	return fmt.Sprintf("RS(%d,%d) object=%s stripe_unit=%s: theory %.3f, formula bound %.3f, measured %.3f (%+.1f%% vs theory)",
		rep.N, rep.K, size(rep.ObjectSize), size(rep.StripeUnit), rep.Theoretical, rep.FormulaBound, rep.Measured, rep.DiffVsTheory*100)
}

func size(b int64) string {
	switch {
	case b >= 1<<30 && b%(1<<30) == 0:
		return fmt.Sprintf("%dGB", b>>30)
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dKB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}
