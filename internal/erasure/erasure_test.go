package erasure

import (
	"testing"
)

func TestCountRunsViaHelperRead(t *testing.T) {
	cases := []struct {
		in   []int
		runs int
	}{
		{nil, 0},
		{[]int{3}, 1},
		{[]int{0, 1, 2}, 1},
		{[]int{0, 2, 4}, 3},
		{[]int{5, 6, 9, 10, 11, 20}, 3},
		{[]int{2, 0, 1}, 1}, // unsorted input gets sorted
	}
	for _, c := range cases {
		h := NewHelperRead(0, c.in)
		if h.Runs != c.runs {
			t.Errorf("runs(%v) = %d, want %d", c.in, h.Runs, c.runs)
		}
	}
}

func TestPlanAccounting(t *testing.T) {
	p := &Plan{
		Failed: []int{1},
		Helpers: []HelperRead{
			NewHelperRead(0, []int{0, 1}),
			NewHelperRead(2, []int{2, 3}),
		},
		SubChunkTotal: 4,
	}
	if p.SubChunksRead() != 4 {
		t.Fatalf("SubChunksRead = %d", p.SubChunksRead())
	}
	if p.ReadFraction() != 1.0 {
		t.Fatalf("ReadFraction = %f", p.ReadFraction())
	}
	if p.BytesRead(4096) != 4096 {
		t.Fatalf("BytesRead = %d", p.BytesRead(4096))
	}
}

func TestCheckShards(t *testing.T) {
	shards := [][]byte{make([]byte, 8), nil, make([]byte, 8)}
	size, err := CheckShards(shards, 3, 4)
	if err != nil || size != 8 {
		t.Fatalf("size=%d err=%v", size, err)
	}
	if _, err := CheckShards(shards, 4, 1); err == nil {
		t.Fatal("wrong count accepted")
	}
	bad := [][]byte{make([]byte, 8), make([]byte, 9)}
	if _, err := CheckShards(bad, 2, 1); err == nil {
		t.Fatal("unequal sizes accepted")
	}
	odd := [][]byte{make([]byte, 7)}
	if _, err := CheckShards(odd, 1, 4); err == nil {
		t.Fatal("non-divisible size accepted")
	}
	empty := [][]byte{nil, nil}
	if _, err := CheckShards(empty, 2, 1); err == nil {
		t.Fatal("all-nil accepted")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("dup-test", nil, nil)
	Register("dup-test", nil, nil)
}

func TestPluginsSorted(t *testing.T) {
	names := Plugins()
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatal("Plugins() not sorted")
		}
	}
}
