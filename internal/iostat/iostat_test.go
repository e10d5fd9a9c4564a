package iostat

import (
	"slices"
	"testing"
	"time"

	"repro/internal/blockdev"
)

func TestSampleDeltas(t *testing.T) {
	s := NewSampler()
	dev, _ := blockdev.New(1 << 20)
	if err := s.TrackFrom("osd0", dev, dev.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := s.TrackFrom("osd0", dev, dev.Snapshot()); err == nil {
		t.Fatal("duplicate track accepted")
	}
	_ = dev.AccountWrite(100)
	s.Sample(time.Second)
	_ = dev.AccountRead(40)
	s.Sample(2 * time.Second)

	samples := s.Samples()
	if len(samples) != 2 {
		t.Fatalf("samples = %d", len(samples))
	}
	if samples[0].WriteBytes != 100 || samples[0].ReadBytes != 0 {
		t.Fatalf("sample0 = %+v", samples[0])
	}
	if samples[1].WriteBytes != 0 || samples[1].ReadBytes != 40 {
		t.Fatalf("sample1 = %+v", samples[1])
	}
}

// TestSamplesStableAfterMoreSamples: Samples hands out the sampler's own
// slice, so a returned slice must keep its contents while later ticks
// append, and an append by the caller must not show up in the sampler.
func TestSamplesStableAfterMoreSamples(t *testing.T) {
	s := NewSampler()
	dev, _ := blockdev.New(1 << 20)
	_ = s.TrackFrom("osd0", dev, dev.Snapshot())
	tick := func(i int) {
		_ = dev.AccountWrite(int64(i))
		s.Sample(time.Duration(i) * time.Second)
	}
	// Three ticks leave the sampler room for a fourth in place, which is
	// where a caller's append would land if Samples did not clip.
	for i := 1; i <= 3; i++ {
		tick(i)
	}
	first := s.Samples()
	kept := slices.Clone(first)
	mine := append(first, Sample{Device: "caller"})
	for i := 4; i <= 40; i++ { // and enough to regrow the sampler's slice
		tick(i)
	}
	if !slices.Equal(first, kept) {
		t.Fatalf("returned samples changed under later ticks: %+v, want %+v", first, kept)
	}
	if mine[3].Device != "caller" {
		t.Fatalf("a later tick overwrote the caller's appended sample: %+v", mine[3])
	}
	all := s.Samples()
	if len(all) != 40 || !slices.Equal(all[:3], kept) {
		t.Fatalf("sampler holds %d samples, first three %+v, want 40 starting %+v", len(all), all[:3], kept)
	}
	if all[3].Device != "osd0" || all[3].Time != 4*time.Second || all[3].WriteBytes != 4 {
		t.Fatalf("the caller's append reached the sampler: fourth sample %+v", all[3])
	}
}

func TestMultipleDevicesSortedInSample(t *testing.T) {
	s := NewSampler()
	d1, _ := blockdev.New(1 << 20)
	d2, _ := blockdev.New(1 << 20)
	_ = s.TrackFrom("osd1", d1, d1.Snapshot())
	_ = s.TrackFrom("osd0", d2, d2.Snapshot())
	s.Sample(time.Second)
	samples := s.Samples()
	if len(samples) != 2 || samples[0].Device != "osd0" || samples[1].Device != "osd1" {
		t.Fatalf("samples = %+v", samples)
	}
}
