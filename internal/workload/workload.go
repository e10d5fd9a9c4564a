// Package workload generates the client workloads the paper drives its
// experiments with — by default 10,000 writes of 64 MB objects (§4.1),
// scalable so smaller runs preserve the same shape.
package workload

import (
	"fmt"
	"math/rand"
	"unsafe"
)

// Object is one object write in the workload.
type Object struct {
	Name string
	Size int64
}

// Spec describes a workload.
type Spec struct {
	// NamePrefix prefixes generated object names.
	NamePrefix string
	// Count is the number of objects.
	Count int
	// ObjectSize is the per-object size in bytes.
	ObjectSize int64
	// SizeJitter, in [0,1), randomizes sizes uniformly within
	// ±SizeJitter*ObjectSize; 0 produces fixed-size objects.
	SizeJitter float64
	// Seed drives the jitter.
	Seed int64
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Count <= 0 {
		return fmt.Errorf("workload: count must be positive, got %d", s.Count)
	}
	if s.ObjectSize <= 0 {
		return fmt.Errorf("workload: object size must be positive, got %d", s.ObjectSize)
	}
	if !(s.SizeJitter >= 0 && s.SizeJitter < 1) {
		return fmt.Errorf("workload: jitter must be in [0,1), got %f", s.SizeJitter)
	}
	return nil
}

// Objects generates the object list deterministically, names strictly
// increasing: the order cluster.BulkLoad requires. The inner loop is
// allocation-free: every name ("<prefix>-<7 digits>", the width fmt used
// to produce) is a slice of one shared backing buffer filled up front,
// and the jitter RNG is only constructed when jitter is in play.
func (s Spec) Objects() ([]Object, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	prefix := s.NamePrefix
	if prefix == "" {
		prefix = "obj"
	}
	nameLen := len(prefix) + 1 + digitsFor(s.Count-1)
	names := make([]byte, s.Count*nameLen)
	out := make([]Object, s.Count)

	var rng *rand.Rand
	if s.SizeJitter > 0 {
		rng = rand.New(rand.NewSource(s.Seed))
	}
	for i := range out {
		base := i * nameLen
		copy(names[base:], prefix)
		names[base+len(prefix)] = '-'
		v := i
		for d := base + nameLen - 1; d > base+len(prefix); d-- {
			names[d] = byte('0' + v%10)
			v /= 10
		}
		size := s.ObjectSize
		if rng != nil {
			f := 1 + s.SizeJitter*(2*rng.Float64()-1)
			size = int64(float64(size) * f)
			if size < 1 {
				size = 1
			}
		}
		// The backing buffer is write-once, so exposing slices of it as
		// strings is safe.
		out[i] = Object{Name: unsafe.String(&names[base], nameLen), Size: size}
	}
	return out, nil
}

// digitsFor returns the digit count of max, at least the 7 the historical
// %07d name format always produced (names sort lexically either way).
func digitsFor(max int) int {
	n := 1
	for v := max; v >= 10; v /= 10 {
		n++
	}
	if n < 7 {
		n = 7
	}
	return n
}
