package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/bluestore"
	"repro/internal/cluster"
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

// configLeaves is the settable surface of cluster.Config: every exported
// leaf field, nested structs walked, Log included. The cost model is not
// on it (its constants live in internal/cluster/costmodel.go); a profile
// reaches the cluster through these fields only. A new field has to be
// added here in the same diff, which is where its case gets argued, as a
// new ECFAULT_ variable's does in knobs.
var configLeaves = []string{
	"Hosts", "OSDsPerHost", "DeviceCapacity", "Racks",
	"Net.BandwidthBytesPerSec", "Net.Latency",
	"Store.MinAllocSize", "Store.CacheBytes",
	"Store.Cache.KVRatio", "Store.Cache.MetaRatio", "Store.Cache.DataRatio", "Store.Cache.Autotune",
	"Tuning.MarkOutInterval", "Tuning.MaxBackfills", "Tuning.RecoveryMaxActive", "Tuning.RecoveryBWFraction",
	"Log",
}

func TestConfigSurface(t *testing.T) {
	var found []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for _, f := range reflect.VisibleFields(typ) {
			switch {
			case !f.IsExported():
			case f.Type.Kind() == reflect.Struct:
				walk(prefix+f.Name+".", f.Type)
			default:
				found = append(found, prefix+f.Name)
			}
		}
	}
	walk("", reflect.TypeFor[cluster.Config]())
	if !slices.Equal(found, configLeaves) {
		t.Errorf("cluster.Config leaf fields (%d):\n got %v\nwant %v", len(found), found, configLeaves)
	}
}

// methods is the exported method set of the two types the simulator's
// state lives in: the cluster and one OSD's object store. The store is
// write-once — an object is written by BulkLoad or WriteObject, and its
// chunks are rewritten only by recovery and scrub repair — so neither
// type has a delete, stat or replace. A new method has to be added here
// in the same diff, which is where its caller gets argued.
var methods = map[reflect.Type][]string{
	reflect.TypeFor[*cluster.Cluster](): {
		"BulkLoad", "CorruptChunk", "CreatePool", "Crush", "FailHost", "Health",
		"HostWithMostChunks", "InjectOSDFailures", "OSDs", "PGStateOf", "Pool",
		"RankHosts", "ReadObject", "RepairInconsistent",
		"ResetFailureState", "RunSim", "ScheduleRecovery", "ScrubPool", "Sim",
		"Snapshot", "UsedBytes", "WriteObject",
	},
	reflect.TypeFor[*bluestore.Store](): {
		"AccessProfile", "CorruptChunk",
		"DataBytes", "Device", "ExpectRun", "Fork", "Freeze", "HasChunk",
		"MetaBytes", "ReadChunk", "ScrubChunk", "SetDataWorkingSet",
		"UsedBytes", "Writable", "WriteChunk", "WriteChunksBulk",
	},
}

func TestMethodSurface(t *testing.T) {
	for typ, want := range methods {
		var found []string
		for i := 0; i < typ.NumMethod(); i++ {
			found = append(found, typ.Method(i).Name)
		}
		if !slices.Equal(found, want) {
			t.Errorf("%v methods (%d):\n got %v\nwant %v", typ, len(found), found, want)
		}
	}
}
