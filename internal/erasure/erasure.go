// Package erasure defines the common interface implemented by the erasure
// codes in this repository (the generator-matrix codes Reed-Solomon, LRC
// and SHEC, which share the gensolve core, and Clay), along with repair-plan
// types that describe the I/O a reconstruction requires. The plan types are
// what the cluster simulator uses to charge network and disk costs, so they
// carry not just byte counts but also the contiguity of sub-chunk reads,
// which matters for codes with sub-packetization.
package erasure

import (
	"errors"
	"fmt"
	"sort"
)

// Common errors.
var (
	ErrTooManyErasures = errors.New("erasure: more shards lost than the code can repair")
	ErrShardCount      = errors.New("erasure: wrong number of shards")
	ErrShardSize       = errors.New("erasure: shard sizes invalid")
	ErrUnknownPlugin   = errors.New("erasure: unknown plugin")
)

// Code is a systematic erasure code over n = k + m shards.
type Code interface {
	// Name identifies the code and its technique, e.g. "reed_sol_van" or
	// "clay".
	Name() string
	// K is the number of data shards.
	K() int
	// M is the number of parity shards.
	M() int
	// N is the total number of shards (K+M).
	N() int
	// SubChunks is the sub-packetization level alpha: each shard is
	// logically divided into alpha equal sub-chunks. Reed-Solomon has
	// alpha = 1; Clay has alpha = q^t.
	SubChunks() int
	// Encode computes the parity shards from the data shards. shards must
	// have length N; the first K entries must be non-nil, equal length,
	// and divisible by SubChunks. Parity entries are allocated if nil.
	Encode(shards [][]byte) error
	// Decode reconstructs all nil shards in place. At most M shards may
	// be nil.
	Decode(shards [][]byte) error
	// RepairPlan describes the sub-chunk reads needed to reconstruct the
	// given failed shard indices.
	RepairPlan(failed []int) (*Plan, error)
	// Repair reconstructs exactly the shards listed in failed, reading
	// only the sub-chunks prescribed by RepairPlan(failed) from the
	// surviving shards. Failed entries of shards may be nil and are
	// allocated.
	Repair(shards [][]byte, failed []int) error
}

// PatternChecker is implemented by non-MDS codes (LRC, SHEC) whose
// decodability depends on the erasure pattern, not only its size. MDS
// codes need not implement it: any pattern of at most M erasures decodes.
type PatternChecker interface {
	// CanRecover reports whether the given failed shard indices are
	// decodable from the survivors.
	CanRecover(failed []int) bool
}

// CanRecover reports whether a code tolerates the given erasure pattern,
// consulting PatternChecker when implemented and the M bound otherwise.
func CanRecover(c Code, failed []int) bool {
	if pc, ok := c.(PatternChecker); ok {
		return pc.CanRecover(failed)
	}
	return len(failed) <= c.M()
}

// HelperRead lists the sub-chunks a repair must read from one surviving
// shard.
type HelperRead struct {
	Shard     int   // helper shard index
	SubChunks []int // sorted sub-chunk indices to read
	Runs      int   // number of contiguous runs within SubChunks
}

// Plan is the I/O plan for a repair. Plans returned by RepairPlan are
// memoized and shared between concurrent callers (and between snapshot
// forks of a registry code), so callers must treat them as immutable.
type Plan struct {
	Failed        []int
	Helpers       []HelperRead
	SubChunkTotal int // alpha of the code
}

// SubChunksRead returns the total number of sub-chunks the plan reads.
func (p *Plan) SubChunksRead() int {
	total := 0
	for _, h := range p.Helpers {
		total += len(h.SubChunks)
	}
	return total
}

// ReadFraction is the fraction of one full stripe (n * alpha sub-chunks
// worth k*chunk of data) that must be read, expressed in units of whole
// chunks: reading all alpha sub-chunks of one helper counts as 1.0.
func (p *Plan) ReadFraction() float64 {
	return float64(p.SubChunksRead()) / float64(p.SubChunkTotal)
}

// BytesRead returns the bytes read from helpers to repair shards of the
// given chunk size.
func (p *Plan) BytesRead(chunkSize int64) int64 {
	sub := chunkSize / int64(p.SubChunkTotal)
	return int64(p.SubChunksRead()) * sub
}

// countRuns returns the number of maximal contiguous runs in a sorted
// index slice.
func countRuns(idx []int) int {
	if len(idx) == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < len(idx); i++ {
		if idx[i] != idx[i-1]+1 {
			runs++
		}
	}
	return runs
}

// NewHelperRead builds a HelperRead, sorting the indices and counting runs.
func NewHelperRead(shard int, subChunks []int) HelperRead {
	s := append([]int(nil), subChunks...)
	sort.Ints(s)
	return HelperRead{Shard: shard, SubChunks: s, Runs: countRuns(s)}
}

// CheckShards validates a shard slice against the code geometry: length n,
// all non-nil shards equal-sized and divisible by alpha. It returns the
// shard size (0 if all shards are nil).
func CheckShards(shards [][]byte, n, alpha int) (int, error) {
	if len(shards) != n {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), n)
	}
	size := 0
	for i, s := range shards {
		if s == nil {
			continue
		}
		if size == 0 {
			size = len(s)
		}
		if len(s) != size {
			return 0, fmt.Errorf("%w: shard %d has %d bytes, want %d", ErrShardSize, i, len(s), size)
		}
	}
	if size == 0 {
		return 0, fmt.Errorf("%w: all shards nil", ErrShardSize)
	}
	if size%alpha != 0 {
		return 0, fmt.Errorf("%w: shard size %d not divisible by sub-chunk count %d", ErrShardSize, size, alpha)
	}
	return size, nil
}

// CheckDataShards validates Encode's input: n shards whose first k are
// non-nil, equal-sized and divisible by alpha (parity entries may be
// anything; Encode replaces them). It returns the shard size.
func CheckDataShards(shards [][]byte, k, n, alpha int) (int, error) {
	if len(shards) != n {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), n)
	}
	size := -1
	for i, s := range shards[:k] {
		if s == nil {
			return 0, fmt.Errorf("%w: data shard %d is nil", ErrShardSize, i)
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return 0, fmt.Errorf("%w: shard %d has %d bytes, want %d", ErrShardSize, i, len(s), size)
		}
	}
	if size%alpha != 0 {
		return 0, fmt.Errorf("%w: shard size %d not divisible by sub-chunk count %d", ErrShardSize, size, alpha)
	}
	return size, nil
}

// Factory builds a code from (k, m, d). New has already resolved d = 0 to
// the plugin's default; codes that do not use d ignore it.
type Factory func(k, m, d int) (Code, error)

// plugin is one registration: the factory and, for a plugin with a d
// parameter, the d that 0 stands for.
type plugin struct {
	build    Factory
	defaultD func(k, m int) int
}

var registry = map[string]plugin{}

// Register adds a named plugin factory, mirroring Ceph's EC plugin
// registry (jerasure, isa, clay, ...). defaultD is the one statement of a
// plugin's default d, nil for a plugin without one. It panics on
// duplicates, which would indicate an init-order bug.
func Register(name string, f Factory, defaultD func(k, m int) int) {
	if _, dup := registry[name]; dup {
		panic("erasure: duplicate plugin " + name)
	}
	registry[name] = plugin{build: f, defaultD: defaultD}
}

// ResolveD returns the d a plugin builds (k, m, d) with: d itself, or the
// plugin's registered default when d is 0.
func ResolveD(name string, k, m, d int) int {
	if p := registry[name]; d == 0 && p.defaultD != nil {
		return p.defaultD(k, m)
	}
	return d
}

// New instantiates a registered plugin by name. Every plugin codes over
// GF(2^8), so a parameter above 256 builds no code; rejecting it here keeps
// the plugins' shard-count sums from overflowing.
func New(name string, k, m, d int) (Code, error) {
	p, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPlugin, name)
	}
	if k > 256 || m > 256 || d > 256 {
		return nil, fmt.Errorf("erasure: %s k=%d m=%d d=%d: parameters above 256 exceed GF(2^8)", name, k, m, d)
	}
	return p.build(k, m, ResolveD(name, k, m, d))
}

// Plugins returns the sorted names of all registered plugins.
func Plugins() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
