package kernel

import "testing"

// TestProbeTuningRanges: whatever the microprobe measures, on however
// many CPUs, lands inside the clamps Program.run relies on.
func TestProbeTuningRanges(t *testing.T) {
	for _, ncpu := range []int{1, 2, 64} {
		tu := probeTuning(ncpu)
		if tu.chunkBytes < minChunkBytes || tu.chunkBytes > maxChunkBytes {
			t.Errorf("ncpu %d: probed chunk %d outside [%d, %d]", ncpu, tu.chunkBytes, minChunkBytes, maxChunkBytes)
		}
		if tu.parallelThreshold < minParallelThreshold || tu.parallelThreshold > maxParallelThreshold {
			t.Errorf("ncpu %d: probed threshold %d outside [%d, %d]", ncpu, tu.parallelThreshold, minParallelThreshold, maxParallelThreshold)
		}
	}
}

func TestTuningStable(t *testing.T) {
	c1, t1, _ := Tuning()
	c2, t2, _ := Tuning()
	if c1 != c2 || t1 != t2 {
		t.Fatalf("tuning not stable across calls: (%d,%d) then (%d,%d)", c1, t1, c2, t2)
	}
	if c1 < minChunkBytes || t1 < minParallelThreshold {
		t.Fatalf("tuning out of range: chunk=%d threshold=%d", c1, t1)
	}
}
