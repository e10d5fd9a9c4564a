package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/parallel"
)

// record is the reproduction record: the exact output of
// `ecbench -scale 1 -compare`, every bar of the paper's evaluation beside
// the paper's value.
const record = "../../paper_results.txt"

// TestScale1Golden pins the full-scale evaluation to the byte: the
// -compare text against the record file, the plain text and -json by
// sha256. The goldens in internal/experiments run at scale 50, where few
// events share an instant; a change that reorders same-instant events
// (say, drawing a delivery's sequence number at egress instead of at
// ingress completion) passes all of them and still moves Fig. 2a and 2d
// at scale 1. The hashes were recorded at commit b4a9cbd.
//
// The policy: a simplicity or performance change leaves the record and
// the hashes unedited. A change to the model regenerates them with
//
//	ECFAULT_CAPTURE_GOLDEN=1 go test ./cmd/ecbench -run Scale1Golden -v
//
// which writes the record instead of comparing it and prints the two
// hashes to paste below; its CHANGES.md line lists every bar that moved,
// from what to what.
func TestScale1Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper's full campaign three times (about 2 s)")
	}
	capture := os.Getenv("ECFAULT_CAPTURE_GOLDEN") != ""
	ecbench := func(args ...string) []byte {
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatalf("ecbench %v: %v", args, err)
		}
		return buf.Bytes()
	}

	got := ecbench("-scale", "1", "-compare")
	if capture {
		if err := os.WriteFile(record, got, 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(record); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(got, want) {
		line, g, w := firstDiff(string(got), string(want))
		t.Errorf("ecbench -scale 1 -compare differs from %s at line %d:\n got %q\nwant %q", record, line, g, w)
	}

	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "1"}, "d7fc21617ebea203938ed757dddbe8f9e1b1057c123b842b17ac9e6714139691"},
		{[]string{"-scale", "1", "-json"}, "466d6eb472e8de7758c54753b96fc26f825ef464f2bedfc4a6556801d122f21a"},
	} {
		out := ecbench(tc.args...)
		sum := sha256.Sum256(out)
		got := hex.EncodeToString(sum[:])
		if capture {
			fmt.Printf("ecbench %v: %s\n", tc.args, got)
			continue
		}
		if got != tc.want {
			t.Errorf("ecbench %v: sha256 %s, want %s (%d bytes)", tc.args, got, tc.want, len(out))
		}
	}
}

// firstDiff returns the 1-based number of the first line where got and
// want differ, and the two lines; a side that has run out reads as
// "(end of output)".
func firstDiff(got, want string) (line int, g, w string) {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	at := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(end of output)"
	}
	for i := range max(len(gl), len(wl)) {
		if g, w = at(gl, i), at(wl, i); g != w {
			return i + 1, g, w
		}
	}
	return 0, "", ""
}

// TestBackendsReportsWorkers: -workers applies before -backends returns,
// and the "backend:" line stays first, where CI's backend-matrix awk
// reads the active tier.
func TestBackendsReportsWorkers(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(0)) // run leaves -workers set
	var buf bytes.Buffer
	if err := run([]string{"-workers", "1", "-backends"}, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "backend: ") {
		t.Errorf("first line %q, want the backend: line", lines[0])
	}
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, "tuning: ") || !strings.HasSuffix(last, " workers=1") {
		t.Errorf("tuning line %q, want workers=1", last)
	}
}

// TestScaleMustBePositive: a -scale below 1 is an error that names the
// flag, not the full 10,000-object campaign run silently.
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

func TestParseOnly(t *testing.T) {
	for _, tc := range []struct {
		only    string
		want    []string // ids selected
		wantErr string   // substring of the error, "" = none
	}{
		{only: "", want: figureIDs},
		{only: "fig2a", want: []string{"fig2a"}},
		{only: "fig2a, plugins ,wa", want: []string{"fig2a", "plugins", "wa"}},
		{only: strings.Join(figureIDs, ","), want: figureIDs},
		{only: "fig2e", wantErr: `unknown id "fig2e"`},
		{only: "fig2a,plugin", wantErr: `unknown id "plugin"`},
		{only: "fig2a,", wantErr: `unknown id ""`},
	} {
		got, err := parseOnly(tc.only)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), strings.Join(figureIDs, ",")) {
				t.Errorf("parseOnly(%q) error = %v, want %q and the valid set", tc.only, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseOnly(%q): %v", tc.only, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("parseOnly(%q) = %v, want %v", tc.only, got, tc.want)
		}
		for _, id := range tc.want {
			if !got[id] {
				t.Errorf("parseOnly(%q) = %v, missing %s", tc.only, got, id)
			}
		}
	}
}
