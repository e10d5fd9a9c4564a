package workload

import (
	"math"
	"testing"
)

func TestValidate(t *testing.T) {
	bad := []Spec{
		{Count: 0, ObjectSize: 1},
		{Count: 1, ObjectSize: 0},
		{Count: 1, ObjectSize: 1, SizeJitter: 1.0},
		{Count: 1, ObjectSize: 1, SizeJitter: -0.1},
		{Count: 1, ObjectSize: 1, SizeJitter: math.NaN()},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
	}
}

func TestObjectsDeterministic(t *testing.T) {
	s := Spec{Count: 50, ObjectSize: 1000, SizeJitter: 0.5, Seed: 7}
	a, err := s.Objects()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Objects()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestObjectsNamesUniqueAndSized(t *testing.T) {
	s := Spec{NamePrefix: "w", Count: 200, ObjectSize: 4096, SizeJitter: 0.25, Seed: 1}
	objs, err := s.Objects()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, o := range objs {
		if seen[o.Name] {
			t.Fatalf("duplicate name %s", o.Name)
		}
		seen[o.Name] = true
		if o.Size < 3072 || o.Size > 5120 {
			t.Fatalf("size %d outside jitter bounds", o.Size)
		}
	}
}

func TestFixedSizeWithoutJitter(t *testing.T) {
	s := Spec{Count: 10, ObjectSize: 777}
	objs, _ := s.Objects()
	for _, o := range objs {
		if o.Size != 777 {
			t.Fatal("jitterless sizes must be exact")
		}
	}
}
