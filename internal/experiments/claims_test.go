package experiments

import (
	"maps"
	"os"
	"regexp"
	"slices"
	"sync"
	"testing"
)

// record is every artifact at scale 1, the scale of paper_results.txt and
// of every number EXPERIMENTS.md quotes, computed once per test binary.
//
//	go test ./internal/experiments -run Claims -v
//
// logs one verdict per claim: ID, status, artifact and the values compared.
var record = sync.OnceValues(func() (*Artifacts, error) { return Run(1) })

// checkClaims evaluates the claims selected by keys on the record.
func checkClaims(t *testing.T, keys ...string) {
	t.Helper()
	arts, err := record()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range Evaluate(arts, keys...) {
		t.Log(v)
		if !v.Holds {
			t.Errorf("%s (%s) no longer holds: fix the model, or restate the claim in EXPERIMENTS.md and the table together", v.ID, v.Status)
		}
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

// TestClaimRunnerFailsDoctoredArtifacts feeds the evaluator the record
// with one value changed: an asserted claim that breaks and a deviation
// that ends must each fail it, and nothing else may.
func TestClaimRunnerFailsDoctoredArtifacts(t *testing.T) {
	arts, err := record()
	if err != nil {
		t.Fatal(err)
	}
	vals := arts.values()
	doctor := func(artifact, key string, x float64, want string) {
		doctored := maps.Clone(vals)
		doctored[artifact] = maps.Clone(vals[artifact])
		doctored[artifact][key] = x
		var failed []string
		for _, v := range evaluate(doctored, artifact) {
			if !v.Holds {
				failed = append(failed, v.ID+" ("+v.Status+")")
			}
		}
		if !slices.Equal(failed, []string{want}) {
			t.Errorf("%s = %g: evaluator failed %q, want [%s]", key, x, failed, want)
		}
	}
	doctor("fig2a", "kv-optimized/RS(12,9)", 1.005, "C2 (asserted)")        // no longer the slowest RS scheme
	doctor("fig2a", "data-optimized/Clay(12,9,11)", 1.05, "D1 (deviation)") // the paper's bar, above autotune's
	// The first per-PG completion, which the report once printed before
	// the report of recovery I/O.
	doctor("fig3", "OSD log: recovery completed", 633, "C21 (asserted)")
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
