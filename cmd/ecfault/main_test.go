package main

import (
	"io"
	"os"
	"path/filepath"
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
