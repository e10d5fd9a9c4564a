package experiments

import (
	"math"
	"testing"
	"time"
)

func TestTargetsComplete(t *testing.T) {
	targets := Targets()
	wantBars := map[string]int{"fig2a": 6, "fig2b": 6, "fig2c": 6, "fig2d": 8}
	for fig, n := range wantBars {
		if len(targets.Figures[fig]) != n {
			t.Errorf("%s has %d target bars, want %d", fig, len(targets.Figures[fig]), n)
		}
	}
	if targets.Fig3CheckingFraction != 0.537 {
		t.Error("fig3 target wrong")
	}
	if targets.Table3["RS(12,9)"][0] != 1.76 || targets.Table3["RS(15,12)"][1] != 0.720 {
		t.Error("table3 targets wrong")
	}
}

func TestCompareFigureMechanics(t *testing.T) {
	fig := &Figure{
		ID:       "fig2c",
		Baseline: time.Second,
		Cells: []Cell{
			{Config: "4KB", Values: map[string]float64{"RS(12,9)": 1.0, "Clay(12,9,11)": 4.0}},
			{Config: "unpublished", Values: map[string]float64{"RS(12,9)": 2.0}},
		},
	}
	deltas := CompareFigure(fig)
	if len(deltas) != 2 {
		t.Fatalf("deltas = %d, want 2 (unpublished bars skipped)", len(deltas))
	}
	var clay Delta
	for _, d := range deltas {
		if d.Key == "4KB/Clay(12,9,11)" {
			clay = d
		}
	}
	if math.Abs(clay.AbsErr()-0.26) > 1e-9 {
		t.Fatalf("clay abs err = %f", clay.AbsErr())
	}
	if mae := MeanAbsErr(deltas); mae <= 0 || mae > 0.3 {
		t.Fatalf("mean abs err = %f", mae)
	}
	if MeanAbsErr(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
}
