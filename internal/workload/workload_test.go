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

// TestObjectsNamesUniqueAndSized: names are strictly increasing — so
// unique, and any subsequence of them, a PG's share, already the sorted
// table a bulk load requires — for counts around powers of ten, with the
// default and a custom prefix and with jitter on and off; sizes stay
// within the jitter.
func TestObjectsNamesUniqueAndSized(t *testing.T) {
	for _, count := range []int{1, 9, 10, 11, 200, 1_000} {
		for _, prefix := range []string{"", "w"} {
			for _, jitter := range []float64{0, 0.25} {
				s := Spec{NamePrefix: prefix, Count: count, ObjectSize: 4096, SizeJitter: jitter, Seed: 1}
				objs, err := s.Objects()
				if err != nil {
					t.Fatal(err)
				}
				if len(objs) != count {
					t.Fatalf("%+v: %d objects", s, len(objs))
				}
				for i, o := range objs {
					if i > 0 && o.Name <= objs[i-1].Name {
						t.Fatalf("%+v: name %q after %q", s, o.Name, objs[i-1].Name)
					}
					if o.Size < 3072 || o.Size > 5120 || (jitter == 0 && o.Size != 4096) {
						t.Fatalf("%+v: size %d outside jitter bounds", s, o.Size)
					}
				}
			}
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
