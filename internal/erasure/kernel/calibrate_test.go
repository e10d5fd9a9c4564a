package kernel

import "testing"

// TestTuningConstants pins what the threshold is for: the benchmark's
// rs_12_9.64KiB series (3 output rows x 64 KiB) always runs serially and
// rs_12_9.1MiB always fans out, in every process.
func TestTuningConstants(t *testing.T) {
	chunk, threshold, _ := Tuning()
	if chunk != chunkBytes || threshold != parallelThreshold {
		t.Fatalf("Tuning() = (%d, %d), want the constants (%d, %d)", chunk, threshold, chunkBytes, parallelThreshold)
	}
	if !(3*64<<10 < parallelThreshold && parallelThreshold <= 3<<20) {
		t.Errorf("parallelThreshold %d does not separate 3x64 KiB (serial) from 3x1 MiB (fan-out)", parallelThreshold)
	}
	if chunkBytes <= 0 || chunkBytes%64 != 0 {
		t.Errorf("chunkBytes %d is not a positive multiple of 64: worker ranges would split vector words", chunkBytes)
	}
}
