package experiments_test

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/report"
)

// claims are EXPERIMENTS.md's claims about the reproduction, as data.
// Each entry reads one ecbench artifact at scale 1, the scale of
// paper_results.txt and of every number EXPERIMENTS.md quotes, and holds
// when each of its chains does. A C entry is asserted; a D entry is a
// deviation whose chains state the disagreement EXPERIMENTS.md describes,
// so the suite also fails on the day the model stops deviating.
//
//	go test ./internal/experiments -run Claims -v
//
// logs one line per entry: ID, status, artifact and the values compared.
var claims = []claim{
	entry("C1", "fig2a", ge("1", "min bar", "1"), gt("1.10", "max bar")),
	entry("C2", "fig2a", gt("kv-optimized/*", "data-optimized/*"), gt("kv-optimized/*", "autotune/*")),
	entry("D1", "fig2a", gt("autotune/*", "data-optimized/*")),
	entry("C3", "fig2b", gt("1 PG/*", "16 PGs/*", "256 PGs/*")),
	entry("D2", "fig2b", gt("1 PG/*", "1.25×paper 1 PG/*"), gt("16 PGs/*", "1.25×paper 16 PGs/*")),
	entry("C4", "fig2c", gt("64MB/RS(12,9)", "2.5×4KB/RS(12,9)")),
	entry("C5", "fig2c", gt("1.5×4KB/RS(12,9)", "4MB/RS(12,9)")),
	entry("C6", "fig2c", gt("4KB/Clay(12,9,11)", "2×4MB/Clay(12,9,11)"), gt("4KB/Clay(12,9,11)", "2×4KB/RS(12,9)")),
	entry("C7", "fig2c", gt("64MB/RS(12,9)", "2.5×4KB/RS(12,9)"), gt("64MB/Clay(12,9,11)", "2.5×4MB/Clay(12,9,11)")),
	entry("C8", "fig2c", gt("0.35", "MAE")),
	entry("C9", "fig2d", gt("min bar", "1")),
	entry("C10", "fig2d", gt("3 failures same host/*", "2 failures same host/*"), gt("3 failures diff. hosts/*", "2 failures diff. hosts/*")),
	entry("C11", "fig2d", gt("2 failures diff. hosts/*", "2 failures same host/*"), gt("3 failures diff. hosts/*", "3 failures same host/*")),
	entry("C12", "fig2d", gt("3 failures same host/RS(12,9)", "3 failures same host/Clay(12,9,11)")),
	entry("D3", "fig2d", gt("0.9×paper 3 failures same host/*", "3 failures same host/*"), gt("0.9×paper 3 failures diff. hosts/*", "3 failures diff. hosts/*")),
	entry("D4", "fig2d", gt("3 failures diff. hosts/RS(12,9)", "3 failures diff. hosts/Clay(12,9,11)")),
	entry("C13", "fig3", ge("paper high", "checking share", "paper low")),
	entry("C14", "fig3", gt("events", "0"), ge("0", "events out of order", "0")),
	entry("D5", "fig3", gt("paper low", "sweep low"), ge("1.02×paper high", "sweep high", "0.98×paper high")),
	entry("D6", "fig3", gt("MGR log: report recovery I/O", "OSD log: recovery completed")),
	entry("C15", "table3", ge("0.55", "J1 diff", "0.15"), ge("0.95", "J2 diff", "0.5"), gt("J2 diff", "J1 diff"),
		gt("J1 WA", "J1 formula"), gt("J2 WA", "J2 formula")),
	entry("C16", "table3", ge("1.02×J1 paper WA", "J1 WA", "0.98×J1 paper WA"), ge("1.02×J2 paper WA", "J2 WA", "0.98×J2 paper WA")),
	entry("C17", "wa", ge("36", "points", "36"), ge("0", "violations", "0")),
	entry("C18", "plugins", gt("RS(12,9) net/chunk", "SHEC(9,5,3) net/chunk", "LRC(9,3,3) net/chunk", "Clay(12,9,11) net/chunk"),
		gt("0.34×RS(12,9) net/chunk", "Clay(12,9,11) net/chunk")),
	entry("C19", "plugins", gt("LRC(9,3,3) WA", "RS(12,9) WA"), gt("SHEC(9,5,3) WA", "RS(12,9) WA"),
		gt("LRC(9,3,3) nines", "RS(12,9) nines"), gt("SHEC(9,5,3) nines", "RS(12,9) nines")),
	entry("C20", "plugins", gt("Clay(12,9,11) recovery s", "RS(12,9) recovery s")),
}

// recordScale is the scale every claim is evaluated at.
const recordScale = 1

type claim struct {
	id, artifact string  // artifact: the ecbench -only id whose values the chains read
	chains       []chain // every one must hold
}

func entry(id, artifact string, chains ...chain) claim { return claim{id, artifact, chains} }

// values are one artifact's numbers by name.
type values map[string]float64

// record computes every artifact once at recordScale and names its values:
// a figure's bars ("4KB/RS(12,9)"), the paper's ("paper 4KB/RS(12,9)"),
// its "min bar", "max bar" and "MAE"; Fig. 3's shares, paper range, event
// counts and the second at which ecbench prints each event label; a Table
// 3 row's "J1 WA", "J1 formula", "J1 diff" and "J1 paper WA"; the §4.4
// sweep's "points" and "violations"; a plugin row's "<code> recovery s",
// "net/chunk", "WA" and "nines".
var record = sync.OnceValues(func() (map[string]values, error) {
	f2a, err1 := experiments.Fig2aBackendCache(recordScale)
	f2b, err2 := experiments.Fig2bPlacementGroups(recordScale)
	f2c, err3 := experiments.Fig2cStripeUnit(recordScale)
	f2d, err4 := experiments.Fig2dFailureMode(recordScale)
	tl, err5 := experiments.Fig3Timeline(recordScale)
	t3, err6 := experiments.Table3WriteAmplification(recordScale)
	wa, err7 := experiments.WAFormulaValidation(recordScale)
	plugins, err8 := experiments.PluginComparison(recordScale)
	if err := errors.Join(err1, err2, err3, err4, err5, err6, err7, err8); err != nil {
		return nil, err
	}
	targets := experiments.Targets()
	out := map[string]values{}
	for _, fig := range []*experiments.Figure{f2a, f2b, f2c, f2d} {
		v := values{"MAE": experiments.MeanAbsErr(experiments.CompareFigure(fig)), "min bar": math.Inf(1), "max bar": math.Inf(-1)}
		for _, c := range fig.Cells {
			for code, x := range c.Values {
				v[c.Config+"/"+code] = x
				v["min bar"], v["max bar"] = math.Min(v["min bar"], x), math.Max(v["max bar"], x)
			}
		}
		for key, x := range targets.Figures[fig.ID] {
			v["paper "+key] = x
		}
		out[fig.ID] = v
	}
	v := values{"checking share": tl.CheckingFraction, "sweep low": tl.FractionRange[0], "sweep high": tl.FractionRange[1],
		"paper low": targets.Fig3Range[0], "paper high": targets.Fig3Range[1], "events": float64(len(tl.Events)), "events out of order": 0}
	for i := 1; i < len(tl.Events); i++ {
		if tl.Events[i].Time < tl.Events[i-1].Time {
			v["events out of order"]++
		}
	}
	if len(tl.Events) > 0 {
		for _, line := range strings.Split(report.TimelineEvents(tl.Events, tl.Events[0].Time), "\n") {
			at, label, _ := strings.Cut(strings.TrimSpace(line), "s  ")
			if s, err := strconv.ParseFloat(at, 64); err == nil {
				v[label] = s
			}
		}
	}
	out["fig3"] = v
	out["table3"] = values{}
	for _, r := range t3 {
		id, code, _ := strings.Cut(r.ID, " ")
		for field, x := range map[string]float64{"WA": r.Report.Measured, "formula": r.Report.FormulaBound, "diff": r.Report.DiffVsTheory, "paper WA": targets.Table3[code][0]} {
			out["table3"][id+" "+field] = x
		}
	}
	out["wa"] = values{"points": float64(len(wa)), "violations": 0}
	for _, r := range wa {
		if !r.Holds {
			out["wa"]["violations"]++
		}
	}
	out["plugins"] = values{}
	for _, r := range plugins {
		if r.RecoveryTime <= 0 || r.ActualWA <= 1 || r.DurabilityNines <= 0 {
			return nil, fmt.Errorf("plugins: row %s incomplete: %+v", r.Label, r)
		}
		for field, x := range map[string]float64{"recovery s": r.RecoveryTime.Seconds(), "net/chunk": r.NetPerChunk, "WA": r.ActualWA, "nines": r.DurabilityNines} {
			out["plugins"][r.Label+" "+field] = x
		}
	}
	return out, nil
})

// evaluate runs the claims whose ID or artifact is in keys (every claim
// when keys is empty) on arts, logs one line per claim and returns the
// claims whose predicate fails.
func evaluate(arts map[string]values, logf func(string, ...any), keys ...string) (failed []string) {
	for _, c := range claims {
		if len(keys) > 0 && !slices.Contains(keys, c.id) && !slices.Contains(keys, c.artifact) {
			continue
		}
		status := map[byte]string{'C': "asserted", 'D': "deviation"}[c.id[0]]
		ok, got := true, make([]string, len(c.chains))
		for i, ch := range c.chains {
			var held bool
			held, got[i] = ch.holds(arts[c.artifact])
			ok = ok && held
		}
		logf("%-3s %-9s %-7s %s", c.id, status, c.artifact, strings.Join(got, "; "))
		if !ok {
			failed = append(failed, c.id+" ("+status+")")
		}
	}
	return failed
}

// checkClaims evaluates the claims selected by keys on the record.
func checkClaims(t *testing.T, keys ...string) {
	t.Helper()
	arts, err := record()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range evaluate(arts, t.Logf, keys...) {
		t.Errorf("%s no longer holds: fix the model, or restate the claim in EXPERIMENTS.md and the table together", id)
	}
}

func TestClaims(t *testing.T)                   { checkClaims(t) }
func TestFig2aShape(t *testing.T)               { checkClaims(t, "fig2a") }
func TestFig2bShape(t *testing.T)               { checkClaims(t, "fig2b") }
func TestFig2cShape(t *testing.T)               { checkClaims(t, "fig2c") }
func TestFig2dShape(t *testing.T)               { checkClaims(t, "fig2d") }
func TestFig3TimelineShape(t *testing.T)        { checkClaims(t, "fig3") }
func TestTable3Shape(t *testing.T)              { checkClaims(t, "table3") }
func TestWAFormulaValidationHolds(t *testing.T) { checkClaims(t, "wa") }
func TestPluginComparison(t *testing.T)         { checkClaims(t, "plugins") }
func TestReproductionAccuracy(t *testing.T)     { checkClaims(t, "C8", "C16") }

// TestClaimRunnerFailsDoctoredArtifacts feeds the runner the record with
// one fig2a bar changed: an asserted claim that breaks and a deviation
// that ends must each fail it, and nothing else may.
func TestClaimRunnerFailsDoctoredArtifacts(t *testing.T) {
	arts, err := record()
	if err != nil {
		t.Fatal(err)
	}
	doctor := func(bar string, v float64, want string) {
		doctored := maps.Clone(arts)
		doctored["fig2a"] = maps.Clone(arts["fig2a"])
		doctored["fig2a"][bar] = v
		if got := evaluate(doctored, func(string, ...any) {}, "fig2a"); !slices.Equal(got, []string{want}) {
			t.Errorf("%s = %g: runner failed %q, want [%s]", bar, v, got, want)
		}
	}
	doctor("kv-optimized/RS(12,9)", 1.005, "C2 (asserted)")        // no longer the slowest RS scheme
	doctor("data-optimized/Clay(12,9,11)", 1.05, "D1 (deviation)") // the paper's bar, above autotune's
}

// TestClaimIDsMatchExperimentsDoc: EXPERIMENTS.md tags (**C1.**) exactly
// the table's IDs, each once, so its prose cannot drift from the table.
func TestClaimIDsMatchExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	inDoc := regexp.MustCompile(`\*\*[CD]\d+\.\*\*`).FindAllString(string(doc), -1)
	var inTable []string
	for _, c := range claims {
		inTable = append(inTable, "**"+c.id+".**")
	}
	slices.Sort(inDoc)
	slices.Sort(inTable)
	if !slices.Equal(inDoc, inTable) {
		t.Errorf("EXPERIMENTS.md tags %v\nthe claims table has %v", inDoc, inTable)
	}
}

// get reads key: a number, "f×name" (f times the value) or a name (see
// record). A missing name is NaN, which fails every comparison.
func (v values) get(key string) (float64, string) {
	if x, err := strconv.ParseFloat(key, 64); err == nil {
		return x, key
	}
	f, name := 1.0, key
	if fs, rest, ok := strings.Cut(key, "×"); ok {
		f, _ = strconv.ParseFloat(fs, 64)
		name = rest
	}
	x, ok := v[name]
	if !ok {
		x = math.NaN()
	}
	return f * x, fmt.Sprintf("%s=%.4g", key, f*x)
}

// A chain is a predicate: its keys' values strictly decrease (op ">")
// or never increase (op "≥"). A chain whose keys hold "*" holds for
// every code, with the code's label in place of the "*".
type chain struct {
	op   string
	keys []string
}

func gt(keys ...string) chain { return chain{">", keys} }
func ge(keys ...string) chain { return chain{"≥", keys} }

// holds evaluates the chain on v and returns the values it compared.
func (ch chain) holds(v values) (bool, string) {
	ok, lines := true, []string{}
	for _, code := range experiments.Codes {
		prev, parts := math.Inf(1), make([]string, len(ch.keys))
		for i, k := range ch.keys {
			var x float64
			x, parts[i] = v.get(strings.ReplaceAll(k, "*", code.Label))
			ok, prev = ok && (x < prev || ch.op == "≥" && x == prev), x
		}
		lines = append(lines, strings.Join(parts, " "+ch.op+" "))
		if !strings.Contains(strings.Join(ch.keys, ""), "*") {
			break // no code in the keys: one pass
		}
	}
	return ok, strings.Join(lines, "; ")
}
