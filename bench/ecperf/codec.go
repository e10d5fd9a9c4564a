package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/erasure"
	"repro/internal/erasure/codecache"
	"repro/internal/gf256"
)

// The two codes under study and the four shard sizes. The two small sizes
// put Clay on its direct-row and batched paths (sub-chunks of 56 B and
// 816 B: Fig. 2c's stripe_unit = 4 KB penalty); the two large ones on the
// per-plane path, Program.Run chunking and both parallel thresholds
// (8 MiB is the chunk a 64 MB object really produces).
var (
	codecCodes = []struct {
		label   string
		plugin  string
		k, m, d int
	}{
		{"rs_12_9", "jerasure_reed_sol_van", 9, 3, 0},
		{"clay_12_9_11", "clay", 9, 3, 11},
	}
	codecSizes = []struct {
		label  string
		bytes  int
		regime string
		cycles int // stripe cycles per round, balancing the time each size gets
	}{
		{"4KiB", 4 << 10, "small", 256},
		{"64KiB", 64 << 10, "small", 64},
		{"1MiB", 1 << 20, "large", 6},
		{"8MiB", 8 << 20, "large", 1},
	}
	codecOps = []string{"encode", "repair", "decode"}
)

// ringBytes is the data each series cycles through: more than the 4 MiB
// L2, so no stripe is touched again while still resident.
const ringBytes = 32 << 20

// stripe is one seed-generated input: k data shards (read-only views into
// the shared random pool) and the positions the decode step erases.
type stripe struct {
	data   [][]byte
	erased [3]int // two data shards and one parity
}

// codecSeries is one (code, shard size) pair and its ring of stripes.
type codecSeries struct {
	key    string // "<code>.<size>", also the per-layer metric prefix
	regime string
	code   erasure.Code
	shard  int
	cycles int
	ring   []stripe
	next   int // ring cursor; also rotates the repaired shard
}

// codecStripe puts the real codec stack to work, which none of the
// simulator workloads do (the simulator charges codec time through a cost
// model): encode, single-shard repair and three-erasure decode of the
// same stripe, every result compared byte for byte.
type codecStripe struct {
	series []*codecSeries
}

// newCodecSeries builds the eight series over one random pool drawn from
// the seed. Data shards alias the pool: the codecs only read them.
func newCodecSeries(cfg config, seed int64) ([]*codecSeries, error) {
	rng := rand.New(rand.NewSource(seed))
	var series []*codecSeries
	poolLen := 0
	for _, c := range codecCodes {
		code, err := codecache.Get(c.plugin, c.k, c.m, c.d)
		if err != nil {
			return nil, err
		}
		for _, sz := range codecSizes {
			// Shards are rounded up to a multiple of 8*alpha so every
			// sub-chunk stays word-aligned.
			unit := 8 * code.SubChunks()
			shard := (sz.bytes/cfg.shrink + unit - 1) / unit * unit
			stripes := (ringBytes/cfg.shrink + c.k*shard - 1) / (c.k * shard)
			s := &codecSeries{
				key: c.label + "." + sz.label, regime: sz.regime,
				code: code, shard: shard, cycles: sz.cycles,
				ring: make([]stripe, stripes),
			}
			series = append(series, s)
			if n := stripes * c.k * shard; n > poolLen {
				poolLen = n
			}
		}
	}
	pool := make([]byte, poolLen)
	fillRandom(pool, uint64(seed))
	for _, s := range series {
		k, n := s.code.K(), s.code.N()
		for i := range s.ring {
			st := &s.ring[i]
			for j := 0; j < k; j++ {
				off := (i*k + j) * s.shard
				st.data = append(st.data, pool[off:off+s.shard:off+s.shard])
			}
			a := rng.Intn(k)
			b := (a + 1 + rng.Intn(k-1)) % k
			st.erased = [3]int{a, b, k + rng.Intn(n-k)}
		}
	}
	return series, nil
}

// fillRandom fills buf from a xorshift64 stream.
func fillRandom(buf []byte, seed uint64) {
	x := seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for i := 0; i < len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		for j := 0; j < 8 && i+j < len(buf); j++ {
			buf[i+j] = byte(x >> (8 * j))
		}
	}
}

// cycle runs one stripe through encode, repair and decode and returns the
// time each took, in the order of codecOps. Only the three codec calls
// are timed; the byte comparisons happen between them.
func (s *codecSeries) cycle(tr *tracer) (took [3]time.Duration, err error) {
	st := &s.ring[s.next%len(s.ring)]
	k, n := s.code.K(), s.code.N()
	shards := make([][]byte, n)
	copy(shards, st.data)

	timed := func(i int, call func() error) bool {
		op := codecOps[i]
		tr.do("erasure."+s.key+"."+op, func() {
			start := time.Now()
			err = call()
			took[i] = time.Since(start)
		})
		if err != nil {
			err = fmt.Errorf("%s: %w", op, err)
		}
		return err == nil
	}
	// restore puts the original shards back after a reconstruction and
	// reports whether the reconstruction had reproduced them.
	restore := func(op string, saved map[int][]byte) bool {
		for i, want := range saved {
			if !bytes.Equal(shards[i], want) {
				err = fmt.Errorf("%s: shard %d differs from the original", op, i)
			}
			shards[i] = want
		}
		return err == nil
	}

	if !timed(0, func() error { return s.code.Encode(shards) }) {
		return took, err
	}
	for i := k; i < n; i++ {
		if len(shards[i]) != s.shard {
			return took, fmt.Errorf("encode: parity %d has %d bytes, want %d", i, len(shards[i]), s.shard)
		}
	}

	// A wrong parity cannot survive the next two steps: each rebuilds
	// original data from it.
	lost := s.next % n
	saved := map[int][]byte{lost: shards[lost]}
	shards[lost] = nil
	if !timed(1, func() error { return s.code.Repair(shards, []int{lost}) }) || !restore("repair", saved) {
		return took, err
	}

	saved = map[int][]byte{}
	for _, i := range st.erased {
		saved[i] = shards[i]
		shards[i] = nil
	}
	if !timed(2, func() error { return s.code.Decode(shards) }) || !restore("decode", saved) {
		return took, err
	}
	s.next++
	return took, nil
}

func (w *codecStripe) setup(r *run) error {
	series, err := newCodecSeries(r.cfg, r.seed)
	if err != nil {
		return err
	}
	w.series = series
	for i := 0; i < r.cfg.warmups(1); i++ {
		w.round(r)
	}
	return nil
}

func (w *codecStripe) round(r *run) {
	for _, s := range w.series {
		for i := 0; i < s.cycles; i++ {
			r.tr.nextOp()
			var took [3]time.Duration
			var err error
			r.tr.do("op", func() { took, err = s.cycle(r.tr) })
			sample := opSample{key: s.key}
			for j, d := range took {
				sample.parts[j] = float64(d) / 1e6
				sample.ms += sample.parts[j]
			}
			r.record(sample, err)
		}
	}
}

// p50 is the geometric mean over the eight series of each series' median
// cycle time: every series weighs the same, whatever its shard size.
func (w *codecStripe) p50(samples []opSample) float64 {
	byKey := map[string][]float64{}
	for _, s := range samples {
		byKey[s.key] = append(byKey[s.key], s.ms)
	}
	medians := make([]float64, 0, len(byKey))
	for _, ms := range byKey {
		medians = append(medians, median(ms))
	}
	sort.Float64s(medians) // map order must not reach the sum's rounding
	return geomean(medians)
}

// own reports the codecs' throughput per regime and per series, from the
// timed cycles' per-call times.
func (w *codecStripe) own(samples []opSample) map[string]float64 {
	byCall := map[string][]float64{}
	for _, s := range samples {
		for j, op := range codecOps {
			byCall[s.key+"."+op] = append(byCall[s.key+"."+op], s.parts[j])
		}
	}
	return codecThroughput(w.series, func(s *codecSeries, op string) float64 { return median(byCall[s.key+"."+op]) })
}

// codecThroughput turns median call times (ms) into MB/s: one value per
// series and operation, "<series>.<op>_MBps", and per operation the
// geometric mean over the four series of a regime, "<op>_<regime>_MBps".
func codecThroughput(series []*codecSeries, medianMS func(s *codecSeries, op string) float64) map[string]float64 {
	out := map[string]float64{}
	regimes := map[string][]float64{}
	for _, s := range series {
		for _, op := range codecOps {
			mbps := s.opBytes(op) / 1e3 / medianMS(s, op)
			out[s.key+"."+op+"_MBps"] = mbps
			regimes[op+"_"+s.regime] = append(regimes[op+"_"+s.regime], mbps)
		}
	}
	for name, xs := range regimes {
		out[name+"_MBps"] = geomean(xs)
	}
	return out
}

// opBytes is the payload a codec call is credited with: k shards for
// encode and decode, the one repaired shard for repair.
func (s *codecSeries) opBytes(op string) float64 {
	if op == "repair" {
		return float64(s.shard)
	}
	return float64(s.code.K() * s.shard)
}

// rowWidth is the number of sources of the probed row: k of RS(12,9).
const rowWidth = 9

// rowMulAdd times the raw fused-row kernel under the codecs — nine
// coefficients, one destination — on a ring larger than L2. It is the
// ceiling that tells a kernel gain from an orchestration gain above it.
func rowMulAdd(tr *tracer, name string, size, calls int, seed int64) {
	const width = rowWidth
	coeffs := make([]byte, width)
	for i := range coeffs {
		coeffs[i] = byte(2 + 7*i)
	}
	plan := gf256.CompileRow(coeffs)
	slots := ringBytes/(size*(width+1)) + 1
	pool := make([]byte, slots*(width+1)*size)
	fillRandom(pool, uint64(seed))
	srcs := make([][]byte, width)
	for c := 0; c < calls; c++ {
		base := (c % slots) * (width + 1) * size
		for j := range srcs {
			srcs[j] = pool[base+j*size : base+(j+1)*size]
		}
		dst := pool[base+width*size : base+(width+1)*size]
		tr.do(name, func() { plan.MulAdd(srcs, dst) })
	}
}
