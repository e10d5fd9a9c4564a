package report

import (
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/logsys"
	"repro/internal/wamodel"
)

func sampleFigure() *experiments.Figure {
	return &experiments.Figure{
		ID:       "fig2x",
		Title:    "Sample",
		Baseline: 100 * time.Second,
		Cells: []experiments.Cell{
			{Config: "one", Values: map[string]float64{"RS(12,9)": 1.0, "Clay(12,9,11)": 1.11}},
			{Config: "two longer", Values: map[string]float64{"RS(12,9)": 2.5, "Clay(12,9,11)": 3.33}},
		},
	}
}

func TestFigureRendering(t *testing.T) {
	out := Figure(sampleFigure())
	for _, want := range []string{"fig2x", "baseline 100.0s", "RS(12,9)", "Clay(12,9,11)", "1.00", "1.11", "2.50", "3.33", "two longer"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// RS column comes before Clay.
	if strings.Index(out, "RS(12,9)") > strings.Index(out, "Clay(12,9,11)") {
		t.Error("RS should be the first column")
	}
}

// TestComparisonRepeats renders one figure's paper comparison many times:
// the rows come from a map per cell, and used to print in map order.
func TestComparisonRepeats(t *testing.T) {
	fig := &experiments.Figure{ID: "fig2c", Baseline: time.Second}
	for _, cfg := range []string{"64MB", "4KB", "4MB"} {
		fig.Cells = append(fig.Cells, experiments.Cell{Config: cfg, Values: map[string]float64{"RS(12,9)": 1.0, "Clay(12,9,11)": 1.5}})
	}
	first := Comparison(fig)
	if strings.Count(first, "\n") != 7 {
		t.Fatalf("want a heading and six rows, got:\n%s", first)
	}
	for i := 0; i < 50; i++ {
		if again := Comparison(fig); again != first {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, again, first)
		}
	}
	deltas := experiments.CompareFigure(fig)
	for i := 1; i < len(deltas); i++ {
		if deltas[i-1].Key >= deltas[i].Key {
			t.Fatalf("deltas not sorted by key: %q before %q", deltas[i-1].Key, deltas[i].Key)
		}
	}
}

func TestFigureBars(t *testing.T) {
	out := FigureBars(sampleFigure())
	if !strings.Contains(out, "█") {
		t.Fatal("no bars rendered")
	}
	// The largest value (3.33) gets the longest bar.
	lines := strings.Split(out, "\n")
	longest, longestVal := 0, ""
	for _, l := range lines {
		if n := strings.Count(l, "█"); n > longest {
			longest = n
			longestVal = l
		}
	}
	if !strings.Contains(longestVal, "3.33") {
		t.Fatalf("longest bar is %q, want the 3.33 row", longestVal)
	}
}

func TestTimelineRendering(t *testing.T) {
	tl := &experiments.TimelineResult{
		RecoveryStarted:  602 * time.Second,
		RecoveryFinished: 1128 * time.Second,
		CheckingFraction: 0.537,
		FractionRange:    [2]float64{0.41, 0.58},
	}
	out := Timeline(tl)
	for _, want := range []string{"602s", "1128s", "53.7%", "41% to 58%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTimelineEvents(t *testing.T) {
	entries := []logsys.Entry{
		{Time: 100 * time.Second, Node: "mon0", Category: logsys.CatFailure, Message: "osd.3 failure detected: no heartbeat"},
		{Time: 130 * time.Second, Node: "mon0", Category: logsys.CatHeartbeat, Message: "receiving heartbeats from osd peers"},
		{Time: 702 * time.Second, Node: "host01", Category: logsys.CatRecovery, Message: "pg 7 start recovery I/O (5 objects)"},
		{Time: 733 * time.Second, Node: "host02", Category: logsys.CatRecovery, Message: "pg 3 recovery completed"},
		{Time: 1228 * time.Second, Node: "mon0", Category: logsys.CatRecovery, Message: "recovery completed: all placement groups active+clean"},
	}
	out := TimelineEvents(entries, 100*time.Second)
	if !strings.Contains(out, "0s  failure detected") {
		t.Errorf("origin not applied:\n%s", out)
	}
	if !strings.Contains(out, "602s  OSD log: start recovery I/O") {
		t.Errorf("recovery start missing:\n%s", out)
	}
	// The cluster-wide completion, not the first PG's.
	if !strings.Contains(out, "1128s  OSD log: recovery completed") || strings.Contains(out, "633s") {
		t.Errorf("completion missing:\n%s", out)
	}
}

func TestTable3Rendering(t *testing.T) {
	rep1, _ := wamodel.NewReport(64<<20, 12, 9, 4<<20, 1.76)
	rep2, _ := wamodel.NewReport(64<<20, 15, 12, 4<<20, 2.15)
	out := Table3([]experiments.WARow{
		{ID: "J1 RS(12,9)", Report: rep1},
		{ID: "J2 RS(15,12)", Report: rep2},
	})
	for _, want := range []string{"RS(12,9)", "RS(15,12)", "1.33", "1.25", "1.76", "2.15", "+32.0%", "+72.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWAValidationRendering(t *testing.T) {
	rows := []experiments.WAValidationRow{
		{ObjectSize: 64 << 20, K: 9, M: 3, StripeUnit: 4 << 20, Formula: 1.5, Measured: 1.76, Holds: true},
		{ObjectSize: 4 << 20, K: 4, M: 2, StripeUnit: 1 << 20, Formula: 1.5, Measured: 1.4, Holds: false},
	}
	out := WAValidation(rows)
	if !strings.Contains(out, "2 points, 1 violations") {
		t.Errorf("violation count wrong:\n%s", out)
	}
	if !strings.Contains(out, "64MB") || !strings.Contains(out, "RS(12, 9)") {
		t.Errorf("formatting wrong:\n%s", out)
	}
}

func TestWAReportString(t *testing.T) {
	rep, _ := wamodel.NewReport(64<<20, 12, 9, 4<<20, 1.76)
	out := WAReport(rep)
	for _, want := range []string{"RS(12,9)", "64MB", "4MB", "1.333", "1.500", "1.760", "+32.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %q", want, out)
		}
	}
}

func TestSizeFormatting(t *testing.T) {
	cases := map[int64]string{
		4096:    "4KB",
		1 << 20: "1MB",
		1 << 30: "1GB",
		1234:    "1234B",
	}
	for in, want := range cases {
		if got := size(in); got != want {
			t.Errorf("size(%d) = %s, want %s", in, got, want)
		}
	}
}
