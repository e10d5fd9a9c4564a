package cluster

import (
	"time"

	"repro/internal/simclock"
)

// The cost model: calibrated constants that convert simulated I/O and CPU
// work into time. They approximate the paper's testbed (m5.xlarge VMs, gp
// SSD volumes, 25 Gb/s network, Ceph Quincy defaults) and were calibrated
// once so the normalized figures land near the paper's values; see
// EXPERIMENTS.md for the calibration record. No profile sets them: the
// settings a profile reaches are Tuning's.
const (
	// Disk characteristics of one OSD volume, in bytes/sec.
	diskReadBW  = 240e6
	diskWriteBW = 220e6
	// diskSeek is charged once per discontiguous run of a read request
	// (sub-chunk reads of Clay are strided, whole-chunk reads are one
	// run): network-attached volume latency.
	diskSeek = 1200 * time.Microsecond
	// diskBlock is the granularity below which strided sub-chunk reads
	// coalesce into whole-range reads (read-ahead / block granularity).
	diskBlock = 4096
	// perIOOverhead is charged per discrete I/O operation submitted to a
	// device (request setup, interrupt, completion).
	perIOOverhead = 16 * time.Microsecond
	// metaLookup is the cost of a cold onode/KV lookup before a chunk
	// read; cache hits (per the BlueStore cache model) waive a fraction.
	metaLookup = 30 * time.Millisecond

	// decodeBW is the GF(2^8) multiply-accumulate throughput of one OSD
	// core, in bytes/sec of *source* data processed. Calibrated against
	// BenchmarkKernel* after the word kernels landed: RS(12,9) repair of a
	// 64 KiB shard consumes ~11 source shards in ~273 µs, ~2.1 GB/s of
	// source data through one core.
	decodeBW = 2.1e9
	// claySubChunkCPU is the pure transform CPU per processed sub-chunk of
	// Clay's plane-by-plane repair (pairwise transforms, per-plane
	// solves): Clay repair at 64 KiB (297 sub-chunk transform/solve ops,
	// 466 µs total) leaves ~1.2 µs per sub-chunk after the bulk GF work.
	claySubChunkCPU = 1200 * time.Nanosecond
	// claySubChunkOp is the per-sub-chunk operation overhead beyond the
	// transform itself — fragmented sub-chunk read handling, RPC batching,
	// plane bookkeeping in the OSD — which a pure codec benchmark cannot
	// see but the paper's Fig. 2c blowup at tiny stripe units requires.
	// Together the two terms keep the calibrated 10 µs/sub-chunk the
	// figures were validated against.
	claySubChunkOp = 8800 * time.Nanosecond
	// repairOpOverhead is the fixed cost per object-repair operation (RPC
	// round trips, queueing, commit), independent of size.
	repairOpOverhead = 60 * time.Millisecond

	// Failure detection (Ceph defaults: 6 s heartbeat, 20 s grace).
	heartbeatInterval = 6 * time.Second
	heartbeatGrace    = 20 * time.Second
	// Peering costs within the checking period: per acting-set member
	// info exchange, and per object-chunk missing-set scan.
	peeringRoundTrip    = 2 * time.Millisecond
	missingScanPerChunk = 40 * time.Microsecond
	// hostCoordination is the extra MON/MGR work per additional failed
	// host (osdmap churn, separate down events).
	hostCoordination = 12 * time.Second

	// recoveryOpCap bounds the throttling cost of a single recovery op:
	// mclock charges per op, so one very large op saturates at the cap
	// plus its full-bandwidth transfer time instead of paying the
	// throttled rate on every byte.
	recoveryOpCap = 1200 * time.Millisecond
	// idleBoost is the multiple of RecoveryBWFraction a recovery op may
	// use when it finds the device idle — mclock lets background recovery
	// consume idle headroom up to its limit, above its reservation.
	idleBoost = 3
	// strideEfficiency is the throughput of strided sub-chunk reads
	// relative to sequential reads (they forfeit read-ahead), eroding
	// Clay's disk-side savings.
	strideEfficiency = 0.35
	// coldDataFraction is the share of recovery reads that can ever be
	// served from the data cache; the rest is cold by construction
	// (written long before the failure).
	coldDataFraction = 0.35
)

// Tuning holds the Ceph daemon settings a profile may set. A zero field
// means Ceph's default, which Normalize fills in.
type Tuning struct {
	// MarkOutInterval is the delay between marking an OSD down and
	// marking it out, which starts recovery — the bulk of the paper's
	// "system checking period" (mon_osd_down_out_interval).
	MarkOutInterval simclock.Time
	// MaxBackfills is the per-OSD recovery reservation limit
	// (osd_max_backfills): a PG must reserve its primary and every
	// recovery target before repairing, which serializes PG recovery the
	// way Ceph does.
	MaxBackfills int
	// RecoveryMaxActive is the per-PG limit of in-flight object repairs
	// (osd_recovery_max_active_ssd).
	RecoveryMaxActive int
	// RecoveryBWFraction is the share of device bandwidth recovery I/O is
	// allowed to use: Ceph's mClock/wpq scheduling deprioritizes recovery
	// against client I/O headroom.
	RecoveryBWFraction float64
}

// Normalize fills unset (zero or negative) fields with Ceph's defaults:
// a 600 s mark-out interval, one backfill per OSD, ten active recovery
// ops per PG, and a 0.13 recovery bandwidth share.
func (t Tuning) Normalize() Tuning {
	if t.MarkOutInterval <= 0 {
		t.MarkOutInterval = 600 * time.Second
	}
	if t.MaxBackfills <= 0 {
		t.MaxBackfills = 1
	}
	if t.RecoveryMaxActive <= 0 {
		t.RecoveryMaxActive = 10
	}
	if t.RecoveryBWFraction <= 0 {
		t.RecoveryBWFraction = 0.13
	}
	return t
}

// recoveryFraction returns the recovery bandwidth share for one op. A
// busy device grants only the mclock reservation; an idle device lets
// recovery burst up to idleBoost times the reservation (its limit). The
// share never exceeds the whole device.
func (t *Tuning) recoveryFraction(deviceIdle bool) float64 {
	f := t.RecoveryBWFraction
	if deviceIdle {
		f *= idleBoost
	}
	return min(f, 1)
}

// throttledTime charges bytes at the recovery-priority rate, capped at
// recoveryOpCap plus the full-bandwidth transfer time (the per-op mclock
// charge saturating for very large ops).
func (t *Tuning) throttledTime(bytes int64, fullBW float64, deviceIdle bool) simclock.Time {
	throttled := simclock.Time(float64(bytes) / (fullBW * t.recoveryFraction(deviceIdle)) * float64(time.Second))
	capped := recoveryOpCap + simclock.Time(float64(bytes)/fullBW*float64(time.Second))
	return min(capped, throttled)
}

// diskReadTime models one helper-side recovery read: ios discrete
// operations over a total of diskBytes, with runs discontiguous extents,
// at the deprioritized recovery bandwidth.
func (t *Tuning) diskReadTime(diskBytes int64, ios, runs int, deviceIdle bool) simclock.Time {
	d := t.throttledTime(diskBytes, diskReadBW, deviceIdle)
	d += simclock.Time(ios) * perIOOverhead
	d += simclock.Time(runs) * diskSeek
	return d
}

// diskWriteTime models writing a reconstructed chunk at recovery priority.
func (t *Tuning) diskWriteTime(bytes int64, deviceIdle bool) simclock.Time {
	d := t.throttledTime(bytes, diskWriteBW, deviceIdle)
	return d + perIOOverhead + diskSeek
}

// decodeTime models reconstructing lost chunks from srcBytes of helper
// data plus Clay's per-sub-chunk overhead for subChunkOps processed
// sub-chunks.
func decodeTime(srcBytes int64, subChunkOps int64) simclock.Time {
	d := simclock.Time(float64(srcBytes) / decodeBW * float64(time.Second))
	d += simclock.Time(subChunkOps) * (claySubChunkCPU + claySubChunkOp)
	return d
}
