package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// knobs is the whole environment surface of the program: the suffix of
// every ECFAULT_ variable named anywhere in the Go sources. A new
// variable has to be added here in the same diff, which is where its
// second value in use gets argued; a deleted one has to leave.
var knobs = []string{"BACKEND", "CAPTURE_GOLDEN", "WORKERS"}

func TestKnobSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	re := regexp.MustCompile(`ECFAULT_([A-Z_]+)`)
	var found []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAllSubmatch(src, -1) {
			found = append(found, string(m[1]))
		}
	}
	slices.Sort(found)
	if found = slices.Compact(found); !slices.Equal(found, knobs) {
		t.Errorf("variables in the sources:\n got %v\nwant %v", found, knobs)
	}
}
