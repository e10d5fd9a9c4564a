package kernel

// Program.run's two sizes. They never affect output bytes — every
// chunking or split of a run is byte-identical by construction — only
// throughput. They are constants, not a start-up measurement, so that two
// processes of one binary run the same code and a per-layer cost means
// the same thing in both (DESIGN.md, "Verdicts", PR 21, has the numbers
// behind the values).
const (
	// chunkBytes is the stripe range processed per pass over all output
	// rows: sources are fetched from memory once per chunk, not per row.
	chunkBytes = 32 << 10
	// parallelThreshold is the least output work (rows x bytes) worth
	// fanning out: 3 rows x 64 KiB stays serial, 3 rows x 1 MiB fans out.
	parallelThreshold = 256 << 10
)

// Tuning reports the two constants (tests and `ecbench -backends`). The
// third value is always 0: bench/ecperf/host.go still reads three, and
// the next benchmark PR (ROADMAP 1a) removes it.
func Tuning() (chunk, threshold, _ int) { return chunkBytes, parallelThreshold, 0 }
