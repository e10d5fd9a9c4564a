package experiments

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// claims are EXPERIMENTS.md's claims about the reproduction, as data.
// Each entry reads one artifact and holds when each of its chains does.
// A C entry is asserted; a D entry is a deviation whose chains state the
// disagreement EXPERIMENTS.md describes, so its verdict also fails on the
// day the model stops deviating. The numbers EXPERIMENTS.md quotes are
// those of scale 1, the scale of paper_results.txt.
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
	entry("C21", "fig3", ge("OSD log: recovery completed", "MGR log: report recovery I/O", "OSD log: start recovery I/O",
		"OSD log: collecting missing OSDs, queueing recovery", "OSD log: check recovery resource",
		"MGR log: receiving heartbeats", "failure detected")),
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

type claim struct {
	id, artifact string  // artifact: the ArtifactIDs entry whose values the chains read
	chains       []chain // every one must hold
}

func entry(id, artifact string, chains ...chain) claim { return claim{id, artifact, chains} }

// Verdict is one claim's outcome on a run of the evaluation.
type Verdict struct {
	ID, Artifact string
	Status       string // "asserted" (a C entry) or "deviation" (a D entry)
	Holds        bool   // every chain held
	Compared     string // the values each chain compared
}

func (v Verdict) String() string {
	return fmt.Sprintf("%-3s %-9s %-7s %s", v.ID, v.Status, v.Artifact, v.Compared)
}

// Evaluate returns the verdict of every claim whose ID or artifact is in
// keys (every claim when keys is empty) on a, in the table's order. A
// claim whose artifact a lacks does not hold.
func Evaluate(a *Artifacts, keys ...string) []Verdict {
	return evaluate(a.values(), keys...)
}

func evaluate(arts map[string]values, keys ...string) []Verdict {
	var out []Verdict
	for _, c := range claims {
		if len(keys) > 0 && !slices.Contains(keys, c.id) && !slices.Contains(keys, c.artifact) {
			continue
		}
		v := Verdict{ID: c.id, Artifact: c.artifact, Status: map[byte]string{'C': "asserted", 'D': "deviation"}[c.id[0]], Holds: true}
		got := make([]string, len(c.chains))
		for i, ch := range c.chains {
			var held bool
			held, got[i] = ch.holds(arts[c.artifact])
			v.Holds = v.Holds && held
		}
		v.Compared = strings.Join(got, "; ")
		out = append(out, v)
	}
	return out
}

// values are one artifact's numbers by name.
type values map[string]float64

// values names the numbers of every artifact a holds: a figure's bars
// ("4KB/RS(12,9)"), the paper's ("paper 4KB/RS(12,9)"), its "min bar",
// "max bar" and "MAE"; Fig. 3's shares, paper range, event counts and
// each phase's second after the first event, under its label; a Table 3
// row's "J1 WA", "J1 formula", "J1 diff" and "J1 paper WA"; the §4.4
// sweep's "points" and "violations"; a plugin row's "<code> recovery s",
// "net/chunk", "WA" and "nines", left out for a row whose recovery time,
// WA or nines went unmeasured.
func (a *Artifacts) values() map[string]values {
	targets := Targets()
	out := map[string]values{}
	for _, fig := range []*Figure{a.Fig2a, a.Fig2b, a.Fig2c, a.Fig2d} {
		if fig == nil {
			continue
		}
		v := values{"MAE": MeanAbsErr(CompareFigure(fig)), "min bar": math.Inf(1), "max bar": math.Inf(-1)}
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
	if tl := a.Fig3; tl != nil {
		v := values{"checking share": tl.CheckingFraction, "sweep low": tl.FractionRange[0], "sweep high": tl.FractionRange[1],
			"paper low": targets.Fig3Range[0], "paper high": targets.Fig3Range[1], "events": float64(len(tl.Events)), "events out of order": 0}
		for i := 1; i < len(tl.Events); i++ {
			if tl.Events[i].Time < tl.Events[i-1].Time {
				v["events out of order"]++
			}
		}
		for _, ph := range Phases(tl.Events) {
			v[ph.Label] = (ph.Time - tl.Events[0].Time).Seconds()
		}
		out["fig3"] = v
	}
	out["table3"] = values{}
	for _, r := range a.Table3 {
		id, code, _ := strings.Cut(r.ID, " ")
		for field, x := range map[string]float64{"WA": r.Report.Measured, "formula": r.Report.FormulaBound, "diff": r.Report.DiffVsTheory, "paper WA": targets.Table3[code][0]} {
			out["table3"][id+" "+field] = x
		}
	}
	out["wa"] = values{"points": float64(len(a.WA)), "violations": 0}
	for _, r := range a.WA {
		if !r.Holds {
			out["wa"]["violations"]++
		}
	}
	out["plugins"] = values{}
	for _, r := range a.Plugins {
		if r.RecoveryTime <= 0 || r.ActualWA <= 1 || r.DurabilityNines <= 0 {
			continue
		}
		for field, x := range map[string]float64{"recovery s": r.RecoveryTime.Seconds(), "net/chunk": r.NetPerChunk, "WA": r.ActualWA, "nines": r.DurabilityNines} {
			out["plugins"][r.Label+" "+field] = x
		}
	}
	return out
}

// get reads key: a number, "f×name" (f times the value) or a name (see
// values). A missing name is NaN, which fails every comparison.
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
	for _, code := range Codes {
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
