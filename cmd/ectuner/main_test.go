package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/parallel"
)

// TestGolden pins ectuner's output at the default scale 50 to the byte:
// the full grid as JSON and as the ranked table, and the greedy search.
// The hashes were recorded when every candidate still ran as a cold
// core.Run of its own, and are the same at any worker count, so a sweep
// that shares populates must reproduce the cold runs exactly.
func TestGolden(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(0)) // run leaves -workers set
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-json"}, "a5d5affa57dd73da037d97c02bc0ddf5291b05e6cc4be3df6592d6bfbc2c75eb"},
		{[]string{"-greedy", "-json"}, "ea087da14f98e4880a105f454df1fb0656957ccafd96d5c206c62a88d0df49c3"},
		{[]string{"-workers", "1"}, "2c3ffe3cdf34f0066cf56222a239ecedeedc37f5719c93e0d008583761812902"},
	} {
		var buf bytes.Buffer
		if err := run(tc.args, &buf); err != nil {
			t.Fatalf("ectuner %v: %v", tc.args, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("ectuner %v: sha256 %s, want %s (%d bytes)", tc.args, got, tc.want, buf.Len())
		}
	}
}

// TestTopMustBePositive: a -top below 1 is an error that names the flag,
// not a table of nothing but "... N more".
func TestTopMustBePositive(t *testing.T) {
	for _, top := range []string{"0", "-3"} {
		var buf bytes.Buffer
		err := run([]string{"-top", top}, &buf)
		if err == nil || !strings.Contains(err.Error(), "-top") {
			t.Errorf("-top %s: error %v, want one naming -top", top, err)
		}
		if buf.Len() != 0 {
			t.Errorf("-top %s printed %q", top, buf.String())
		}
	}
	var buf bytes.Buffer
	if err := run([]string{"-scale", "400", "-top", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(buf.String()), "\n"); len(lines) != 4 || !strings.HasSuffix(lines[3], " 107 more") {
		t.Errorf("-top 1 printed %q, want header, one candidate and the rest counted", buf.String())
	}
}

// TestScaleMustBePositive: a -scale below 1 is an error that names the
// flag, not the unscaled workload run silently.
func TestScaleMustBePositive(t *testing.T) {
	for _, scale := range []string{"0", "-2"} {
		var buf bytes.Buffer
		err := run([]string{"-scale", scale}, &buf)
		if err == nil || !strings.Contains(err.Error(), "-scale") {
			t.Errorf("-scale %s: error %v, want one naming -scale", scale, err)
		}
		if buf.Len() != 0 {
			t.Errorf("-scale %s printed %q", scale, buf.String())
		}
	}
}

func TestUnknownObjective(t *testing.T) {
	if err := run([]string{"-objective", "fastest"}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), `"fastest"`) {
		t.Errorf("error %v, want one naming the objective", err)
	}
}
