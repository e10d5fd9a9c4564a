package experiments

import (
	"testing"
	"time"

	"repro/internal/core"
)

// testScale is the scale of the reproduction record, paper_results.txt:
// the model the design-decision orderings are checked on. The claims of
// EXPERIMENTS.md are checked at the same scale (claims.go).
const testScale = 1

func TestRunRecoveryRejectsFaultFreeProfile(t *testing.T) {
	p := baseProfile(testScale)
	p.Faults = nil
	if _, _, err := runRecoveries([]core.Profile{p}); err == nil {
		t.Fatal("fault-free profile accepted by runRecoveries")
	}
}

func TestScaledRunsAreFast(t *testing.T) {
	start := time.Now()
	if _, err := Fig3Timeline(100); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("scaled fig3 took %v", elapsed)
	}
}
