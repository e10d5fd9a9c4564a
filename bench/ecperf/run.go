package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
)

// workloads lists the benchmark's workloads in report order. The names are
// final; later issues cite them.
var workloads = []struct {
	name string
	make func() workload
}{
	{"campaign", func() workload { return &campaign{} }},
	{"single_run", func() workload { return &singleRun{} }},
	{"fork_sweep", func() workload { return &forkSweep{} }},
	{"codec_stripe", func() workload { return &codecStripe{} }},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// config sizes a run. The benchmark proper runs at scale 1 with the sizes
// of the tables in bench/README.md; -smoke shrinks every dimension so the
// self-test walks the same code in seconds.
type config struct {
	scale     int     // divides the simulator workloads' object count
	shrink    int     // divides codec shard/ring sizes and warm-up/probe op counts
	seconds   float64 // length of the timed region
	setupReps int     // set-up is repeated and its median reported
}

func fullConfig(seconds float64) config {
	return config{scale: 1, shrink: 1, seconds: seconds, setupReps: 3}
}

func smokeConfig() config {
	return config{scale: 50, shrink: 64, seconds: 0.05, setupReps: 1}
}

// shrunk divides an op count by the shrink factor, keeping at least one.
func (c config) shrunk(n int) int {
	if n /= c.shrink; n < 1 {
		return 1
	}
	return n
}

// warmups divides a warm-up count by the shrink factor; the smoke run,
// whose timings mean nothing, does none.
func (c config) warmups(n int) int { return n / c.shrink }

// opSample is the wall time of one timed operation. key names the kind of
// operation (a grid cell, a codec series) for workloads whose operations
// are not all alike.
type opSample struct {
	key   string
	ms    float64
	parts [3]float64 // codec_stripe: ms of the cycle's encode, repair and decode
}

// workload is one set of inputs the benchmark runs. The driver is a
// closed loop with a single client: round is called again only after the
// previous round returned.
type workload interface {
	// setup builds everything the timed operations need — inputs,
	// populated snapshots, warm-up operations. It can be called
	// repeatedly; each call starts from scratch.
	setup(r *run) error
	// round runs one fixed sequence of timed operations, the same
	// sequence every time, recording each through r.record. Rounds repeat
	// until the time budget is spent, so a faster program completes more
	// rounds of identical work rather than different work.
	round(r *run)
	// p50 reduces timed samples to the workload's op_p50_ms.
	p50(samples []opSample) float64
}

func newWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.make(), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// run is the state of one benchmark process: the operation ledger, the
// correctness expectations, and the tracer.
type run struct {
	cfg  config
	seed int64
	tr   *tracer

	attempted int
	failed    int
	failures  []string // first few failure messages, for the report
	samples   []opSample

	// digests maps a cell to the digest every repeat of it must produce:
	// the first one seen, or one computed by a cold run during set-up.
	digests map[string]string
}

func newRun(cfg config, seed int64) *run {
	return &run{cfg: cfg, seed: seed, digests: map[string]string{}}
}

// record enters one operation in the ledger. An operation that returned
// an error or failed a check counts as failed and contributes no timing.
func (r *run) record(s opSample, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, fmt.Sprintf("%s: %v", s.key, err))
		}
		return
	}
	r.samples = append(r.samples, s)
}

// expect checks a cell's digest against the one on record, recording it
// when the cell is seen for the first time.
func (r *run) expect(cell, digest string) error {
	want, ok := r.digests[cell]
	if !ok {
		r.digests[cell] = digest
		return nil
	}
	if digest != want {
		return fmt.Errorf("digest %s differs from %s recorded for the same cell", digest, want)
	}
	return nil
}

// simOp times one simulator call and checks its result outside the timed
// interval: it must have finished a recovery, and its digest must equal
// every other repeat of the cell.
func (r *run) simOp(cell, spanName string, call func() (*core.Result, error)) {
	r.tr.nextOp()
	var res *core.Result
	var err error
	var d time.Duration
	r.tr.do("op", func() {
		start := time.Now()
		r.tr.do(spanName, func() { res, err = call() })
		d = time.Since(start)
	})
	if err == nil {
		err = r.checkResult(cell, res)
	}
	r.record(opSample{key: cell, ms: float64(d) / 1e6}, err)
}

func (r *run) checkResult(cell string, res *core.Result) error {
	if res == nil || res.Recovery == nil || !res.Recovery.Done() {
		return errors.New("no finished recovery")
	}
	return r.expect(cell, resultDigest(res))
}

// resultDigest condenses the simulated statistics of one experiment: the
// recovery result, the storage counters, the timeline length and the
// iostat series. A change meant only to speed up the simulator must leave
// it identical.
func resultDigest(res *core.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%d|%d|%d|", *res.Recovery, res.UsedBytes, res.WrittenBytes, len(res.Timeline))
	for _, s := range res.IOSamples {
		fmt.Fprintf(h, "%d %s %d %d %d %d;", s.Time, s.Device, s.ReadOps, s.WriteOps, s.ReadBytes, s.WriteBytes)
	}
	return shortHex(h.Sum(nil))
}

func textDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return shortHex(sum[:])
}

func shortHex(sum []byte) string { return hex.EncodeToString(sum[:8]) }

// payloadGate is the correctness gate every set-up passes first: a small
// experiment with real bytes — written, a device failed,
// recovered through the real codecs, read back — for RS and for Clay.
// Payload mode is a gate and not a workload because its time goes to
// memmove and page faults, not to the code the benchmark is about.
func payloadGate(runProfile func(core.Profile) (*core.Result, error)) error {
	for _, p := range []core.Profile{core.DefaultProfile(), core.ClayProfile()} {
		p.Name = "gate-" + p.Pool.Plugin
		p.Pool.StripeUnit = 64 << 10
		p.Workload = core.WorkloadSpec{Objects: 16, ObjectSize: 256 << 10, Payload: true}
		p.Faults = []core.FaultSpec{{Level: core.FaultLevelDevice, Count: 1, AtSeconds: 10}}
		res, err := runProfile(p)
		if err != nil {
			return fmt.Errorf("payload gate %s: %w", p.Pool.Plugin, err)
		}
		if res.Recovery == nil || !res.Recovery.Done() || res.Recovery.ObjectRepairs == 0 {
			return fmt.Errorf("payload gate %s: no recovery ran", p.Pool.Plugin)
		}
		if !res.PayloadVerified {
			return fmt.Errorf("payload gate %s: %d objects read back wrong after recovery", p.Pool.Plugin, res.PayloadErrors)
		}
	}
	return nil
}

// ownReporter is a workload with end-to-end metrics of its own (ownDefs),
// taken from the untraced run like the common ones.
type ownReporter interface {
	own(samples []opSample) map[string]float64
}

// medianOps is embedded by workloads whose operations are alike: their
// op_p50_ms is the plain median.
type medianOps struct{}

func (medianOps) p50(samples []opSample) float64 { return median(sampleMS(samples)) }

// setUp is one complete set-up: the payload gate, then the workload's own.
func setUp(r *run, w workload) error {
	if err := payloadGate(core.Run); err != nil {
		return err
	}
	return w.setup(r)
}

func sampleMS(samples []opSample) []float64 {
	ms := make([]float64, len(samples))
	for i, s := range samples {
		ms[i] = s.ms
	}
	return ms
}
