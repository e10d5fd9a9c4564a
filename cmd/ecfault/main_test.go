package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A run that fails must still finish its CPU profile: failed runs are the
// ones one profiles.
func TestFailedRunKeepsProfile(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	err := run([]string{"-profile", filepath.Join(dir, "missing.json"), "-cpuprofile", cpu}, io.Discard)
	if err == nil {
		t.Fatal("run with a nonexistent -profile returned nil")
	}
	st, statErr := os.Stat(cpu)
	if statErr != nil {
		t.Fatal(statErr)
	}
	if st.Size() == 0 {
		t.Fatalf("%s is empty: the profile was not stopped before run returned", cpu)
	}
}

// TestScaleMustBePositive: a -scale below 1 is an error that names the
// flag, not the unscaled profile run silently.
func TestScaleMustBePositive(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "profile.json")
	var profile bytes.Buffer
	if err := run([]string{"-default"}, &profile); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, profile.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, scale := range []string{"0", "-2"} {
		var buf bytes.Buffer
		err := run([]string{"-profile", path, "-scale", scale}, &buf)
		if err == nil || !strings.Contains(err.Error(), "-scale") {
			t.Errorf("-scale %s: error %v, want one naming -scale", scale, err)
		}
		if buf.Len() != 0 {
			t.Errorf("-scale %s printed %q", scale, buf.String())
		}
	}
}
