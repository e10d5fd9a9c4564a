package kernel

import (
	"repro/internal/gf256"
	"repro/internal/parallel"
)

// Program is a coding matrix compiled into executable row plans: one plan
// per output row, each mapping the same source shard slots to one
// destination. Programs are immutable after Compile and safe for
// concurrent use.
type Program struct {
	plans []*gf256.RowPlan
	width int
}

// Compile compiles one coefficient row per output. All rows must have the
// same width (number of source slots).
func Compile(rows [][]byte) *Program {
	p := &Program{plans: make([]*gf256.RowPlan, len(rows))}
	for i, row := range rows {
		if i == 0 {
			p.width = len(row)
		} else if len(row) != p.width {
			panic("kernel: ragged coding matrix")
		}
		p.plans[i] = gf256.CompileRow(row)
	}
	return p
}

// Run executes the program: for every output row i,
//
//	dsts[i] = Σ_j rows[i][j] * srcs[j]   (overwrite)
//	dsts[i] ^= ...                       (accumulate)
//
// Sources under all-zero columns may be nil; every other slice must have
// equal length. The stripe is processed in chunks, all rows per chunk, so
// source windows are fetched once per chunk. When the worker budget
// (parallel.Workers) allows and the output work reaches parallelThreshold,
// contiguous chunk ranges fan out over parallel.ForEach; the output is
// byte-identical to the serial pass because every output byte depends
// only on the same byte offset of the sources.
func (p *Program) Run(srcs, dsts [][]byte, overwrite bool) {
	p.run(srcs, dsts, overwrite, parallel.Workers())
}

// run is Run with an explicit worker count, so a test can force the
// serial pass or the fan-out on any machine.
func (p *Program) run(srcs, dsts [][]byte, overwrite bool, workers int) {
	if len(dsts) != len(p.plans) {
		panic("kernel: destination count does not match program rows")
	}
	if len(p.plans) == 0 {
		return
	}
	if len(srcs) != p.width {
		panic("kernel: source count does not match program width")
	}
	size := len(dsts[0])
	if workers > 1 && len(p.plans)*size >= parallelThreshold {
		nChunks := (size + chunkBytes - 1) / chunkBytes
		if workers > nChunks {
			workers = nChunks
		}
		// Split the stripe into one contiguous, word-aligned range per
		// worker so each range stays a sequential stream. When the
		// ceiling division rounds per up, fewer than workers ranges cover
		// the stripe; clamp so no worker is dispatched onto an empty
		// range.
		per := (nChunks + workers - 1) / workers * chunkBytes
		if nw := (size + per - 1) / per; nw < workers {
			workers = nw
		}
		parallel.ForEach(workers, workers, func(w int) {
			off := w * per
			end := off + per
			if end > size {
				end = size
			}
			p.runRange(srcs, dsts, off, end, overwrite)
		})
		return
	}
	p.runRange(srcs, dsts, 0, size, overwrite)
}

// runRange processes dst bytes [off, end) chunk by chunk, all rows per
// chunk.
func (p *Program) runRange(srcs, dsts [][]byte, off, end int, overwrite bool) {
	for off < end {
		n := end - off
		if n > chunkBytes {
			n = chunkBytes
		}
		for i, plan := range p.plans {
			plan.Apply(srcs, dsts[i], off, off+n, overwrite)
		}
		off += n
	}
}
